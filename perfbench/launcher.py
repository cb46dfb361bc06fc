"""Traced server: install span wrappers, then run the stock service.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py SPANS_FILE STORE_URL

It serves exactly what ``repro serve --store STORE_URL --port 0`` serves,
through :func:`repro.service.server.serve`, with every call into the
store, the result cache, the engine, the solvers and validation timed
from outside. The spans are written to ``SPANS_FILE`` after a SIGTERM
has shut the service down.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import spans  # noqa: E402


def install(rec: spans.Recorder) -> dict[str, bool]:
    """Wrap each layer's entry points; returns which layers exist."""
    import repro.service.server as server
    present = {}
    open_store = getattr(server, "open_store", None)
    present["service.store"] = open_store is not None
    if open_store is not None:
        server.open_store = lambda *a, **kw: spans.StoreProxy(
            open_store(*a, **kw), rec)
    present.update(install_engine(rec))
    return present


def install_engine(rec: spans.Recorder) -> dict[str, bool]:
    """Wrappers shared by the traced server and the traced library run."""
    harness.use_repo_source()
    import repro.api  # noqa: F401 — binds the names wrapped below
    return {
        "engine": spans.wrap_everywhere(rec, "repro.engine.runner",
                                        "run_batch", "engine.run_batch"),
        "engine.shm": spans.wrap_everywhere(rec, "repro.engine.shm",
                                            "acquire", "engine.shm_acquire"),
        "solvers": spans.wrap_everywhere(rec, "repro.engine.runner",
                                         "execute", "solve.execute",
                                         _note_solve),
        "core.validation": spans.wrap_everywhere(
            rec, "repro.core.validation", "validate", "validate"),
    }


def _note_solve(rep, inst, algorithm, *args, **kwargs) -> dict:
    return {"algorithm": algorithm, "machines": inst.machines,
            "wall": getattr(rep, "wall_time_s", 0.0)}


def main(argv: list[str]) -> int:
    spans_file, store_url = Path(argv[0]), argv[1]
    harness.use_repo_source()
    rec = spans.Recorder()
    present = install(rec)
    from repro.service.server import serve
    try:
        serve(store_url, port=0)
    finally:
        rec.dump(spans_file)
        spans_file.with_suffix(".layers.json").write_text(
            json.dumps(present))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
