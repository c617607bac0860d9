"""End-of-run hygiene checks (standard library only).

A run must leave no child process, no extra non-daemon thread, the
service's solver threads stopped, the program's telemetry off, and the
checkout exactly as it found it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Directories never compared: version-control metadata and the
#: benchmark build directory (`.bench_build`).
_SKIP = {".git", ".bench_build"}

Snapshot = Dict[str, Tuple[int, int]]


def snapshot(root: Path) -> Snapshot:
    """Relative path -> (size, mtime_ns) of every file under ``root``."""
    files: Snapshot = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SKIP]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.lstat(path)
            except FileNotFoundError:
                continue
            files[os.path.relpath(path, root)] = (st.st_size,
                                                  st.st_mtime_ns)
    return files


def problems(root: Path, before: Snapshot,
             allowed: Iterable[str] = ()) -> List[str]:
    """Every hygiene rule the process breaks now (empty when clean)."""
    out = []
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
        out.append(f"a child process remains (pid {pid or 'running'})")
    except ChildProcessError:
        pass
    main = threading.main_thread()
    extra = [t.name for t in threading.enumerate()
             if t is not main and not t.daemon]
    if extra:
        out.append(f"non-daemon threads remain: {extra}")
    solvers = [t.name for t in threading.enumerate()
               if t.name.startswith("repro-service-solver")]
    if solvers:
        out.append(f"service solver threads remain: {solvers}")
    telemetry = sys.modules.get("repro.telemetry")
    if telemetry is not None and telemetry.telemetry_enabled():
        out.append("the program's telemetry was switched on")
    skip = {os.path.relpath(Path(p).resolve(), root) for p in allowed}
    after = snapshot(root)
    changed = sorted(p for p in set(before) | set(after)
                     if before.get(p) != after.get(p) and p not in skip)
    if changed:
        out.append(f"files under the checkout changed: {changed[:10]}")
    return out
