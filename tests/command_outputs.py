"""Print the output and exit code of the commands no benchmark pool covers.

Usage: ``python tests/command_outputs.py [verify] [table] [hierarchy]`` (all
three by default). Each command runs in-process through ``cli.main``:
``verify`` on the default suite and at ``--k 1..8``; ``table`` for t0, t1
and t2 at l in {0, 1, 2, 3, 1/2, 3/2, -1/2}, and ``--which params``;
``hierarchy`` on the README and acceptance specs plus one spec per remaining
family. Each run prints a ``$ susypv ...`` header, its stdout and stderr, and
``exit N``. The library is the one under this checkout's ``src/``; run the
script in two checkouts and diff the outputs to see what a change moves
(``tests/pool_digest.py`` covers the solve path). Nothing is written.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from susypv import cli  # noqa: E402

_ELLS = ("0", "1", "2", "3", "1/2", "3/2", "-1/2")  # passed as --l=..., so -1/2 is no flag
# (l, eps, nu): README, acceptance and test_hierarchies specs, one per family
_HIERARCHY_SPECS = (
    ("2", "0.75", "0"), ("1", "-2.25", "inf"), ("0.5", "0", "inf"), ("0", "1.25", "0"),
    ("2", "0.25", "0"), ("1", "0", "0"), ("0", "0.37", "0"), ("0", "0.25", "0"),
    ("1", "0", "inf"), ("3", "-0.25", "0"), ("1", "0.3", "1"),
)

COMMANDS = {
    "verify": [["verify"]] + [["verify", "--k", str(k)] for k in range(1, 9)],
    "table": [["table", "--which", which, f"--l={ell}"]
              for which in ("t0", "t1", "t2") for ell in _ELLS] + [["table", "--which", "params"]],
    "hierarchy": [["hierarchy", "--l", ell, "--eps", eps, "--nu", nu]
                  for ell, eps, nu in _HIERARCHY_SPECS],
}


def run(argv: list[str]) -> str:
    """The header, stdout, stderr and exit code of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"$ susypv {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}exit {code}\n"


if __name__ == "__main__":
    for name in sys.argv[1:] or COMMANDS:
        if name not in COMMANDS:
            sys.exit(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
        for argv in COMMANDS[name]:
            print(run(argv), flush=True)
