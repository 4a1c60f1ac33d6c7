import os
import subprocess
import sys

import monoconv


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(monoconv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone; an import of scipy would also slow
    # every start of the command-line tool
    assert _fresh_interpreter("import sys, monoconv, monoconv.cli; print('scipy' in sys.modules)") == "False"


def test_library_import_loads_no_cli():
    # the command-line parser is built when monoconv.cli is imported; library
    # users should not pay for it, nor for argparse
    code = "import sys, monoconv; print('argparse' in sys.modules, 'monoconv.cli' in sys.modules)"
    assert _fresh_interpreter(code) == "False False"
