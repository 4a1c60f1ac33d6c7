import os
import subprocess
import sys

import monoconv


def test_import_loads_no_scipy():
    # the runtime depends on numpy alone; an import of scipy would also slow
    # every start of the command-line tool
    src = os.path.dirname(os.path.dirname(monoconv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, monoconv, monoconv.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
