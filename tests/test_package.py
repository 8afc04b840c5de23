import subprocess
import sys
import types

import perfcode
from conftest import ROOT


def test_all_matches_the_package():
    """__all__ lists each public name once, and each listed name resolves."""
    assert len(perfcode.__all__) == len(set(perfcode.__all__))
    for name in perfcode.__all__:
        assert hasattr(perfcode, name), name
    public = {
        name
        for name, value in vars(perfcode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(perfcode.__all__)


def test_import_loads_neither_openssl_nor_logging():
    """A fresh interpreter imports perfcode and its CLI without hashlib or logging.

    It runs in a subprocess, because pytest itself has imported both.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import perfcode, perfcode.cli; "
        "print(sorted({'hashlib', '_hashlib', 'logging'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
