"""Import guard for the optional compiled kernel core.

``repro.core._native`` is a tiny hand-written C extension holding the
innermost integer loop of the border search (``split_count``).  It is
strictly optional: the pure-python
wheel never requires a compiler, and every caller keeps a byte-identical
python fallback — the compiled path is proven equivalent by the
``use_fast_paths(False)`` golden tests and the fuzz fastpath oracle.

Build it in place with::

    python -m repro.core._native_build

``REPRO_DISABLE_NATIVE=1`` ignores a built extension (used to measure
the pure-python paths honestly, and as the escape hatch if a build ever
misbehaves).  Consumers import :data:`NATIVE` and test for ``None``;
they only dispatch to it on the *fast* paths — the reference
implementations stay pure Python by contract.
"""

from __future__ import annotations

import os

__all__ = ["NATIVE", "native_available"]

try:
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        NATIVE = None
    else:
        from . import _native as NATIVE    # type: ignore[attr-defined]
except ImportError:      # no compiled core: pure-python fallbacks rule
    NATIVE = None

if NATIVE is not None:
    # fault site: a chaos plan can take the compiled core away from this
    # process (e.g. a pool worker forked under REPRO_FAULTS), proving
    # results stay byte-identical on the pure-python fallback
    try:
        from ..faults import injection as _injection
        if _injection.should_fire("native_probe") is not None:
            NATIVE = None
    except ImportError:     # pragma: no cover - partial install
        pass


def native_available() -> bool:
    """Whether the compiled kernel core is importable and enabled."""
    return NATIVE is not None
