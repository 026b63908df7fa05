"""Run the suite against src/ without an install, subprocesses included.

pyproject's pythonpath setting puts src/ on this process's sys.path only;
PYTHONPATH carries it to the `python -m favard.cli` subprocesses.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
