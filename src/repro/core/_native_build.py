"""Build the optional compiled kernel core in place.

Usage::

    python -m repro.core._native_build            # build
    python -m repro.core._native_build --check    # build + import + self-test

No build-system dependency: one compiler invocation with the include and
extension-suffix paths from :mod:`sysconfig`.  The resulting
``_native.*.so`` sits next to ``_native.c`` and is picked up by
:mod:`repro.core.native` on the next import; it is never required —
see that module for the fallback contract.
"""

from __future__ import annotations

import pathlib
import shlex
import subprocess
import sys
import sysconfig

__all__ = ["build", "extension_path"]


def extension_path() -> pathlib.Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return pathlib.Path(__file__).with_name("_native" + suffix)


def build(verbose: bool = True) -> pathlib.Path:
    """Compile ``_native.c``; returns the path of the built extension."""
    src = pathlib.Path(__file__).with_name("_native.c")
    out = extension_path()
    cc = sysconfig.get_config_var("CC") or "cc"
    cmd = [*shlex.split(cc), "-O2", "-fPIC", "-shared",
           f"-I{sysconfig.get_paths()['include']}",
           str(src), "-o", str(out)]
    if verbose:
        print(" ".join(cmd))
    subprocess.run(cmd, check=True)
    return out


def _self_test() -> None:
    import importlib

    mod = importlib.import_module("repro.core._native")
    assert mod.split_count_scaled([10, 7, 3], 3, 2) == 14
    print("compiled core OK:", mod.__file__)


if __name__ == "__main__":
    path = build()
    print("built", path)
    if "--check" in sys.argv:
        _self_test()
