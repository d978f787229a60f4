"""Set-up as a fresh process pays it: import ltledge, build catalog(), warm up.

Run by ``run.py`` to time ``setup_s``; exits 0 once warm-up is done.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import items  # noqa: E402  (imports ltledge and builds nothing yet)

items.warm_up()
