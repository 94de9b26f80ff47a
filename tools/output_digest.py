"""SHA-256 digests of every output of the fracmp CLI, for byte-identity checks.

usage: PYTHONPATH=src python tools/output_digest.py [--n N] CONFIG...

For each config the tool runs `fracmp.cli.main` once for each subcommand
the config admits: eigen, torsion, solve (a single lambda) or sweep (a
lambda grid), and verify, each into a fresh temporary output directory.
--n N replaces the config's n.  Before hashing, the outputs are made
independent of the run: lines starting with "# generated" and the JSON key
"generated" (the time stamps) are dropped, and the temporary directory is
written as OUT.  The tool prints one line per output file and one per
stdout, `<sha256>  <config>:<subcommand>/<name>`, the stdout line with the
exit code.  Two checkouts gave byte-identical outputs when they print the
same lines.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

from fracmp.cli import main as cli_main
from fracmp.config import parse_config


def normalise(text: str, out_dir: str) -> str:
    """text without its time stamps and with out_dir written as OUT."""
    text = "".join(ln for ln in text.replace(out_dir, "OUT").splitlines(keepends=True)
                   if not ln.startswith("# generated"))
    try:
        body = json.loads(text)
    except ValueError:
        return text
    if isinstance(body, dict) and "generated" in body:
        del body["generated"]
        return json.dumps(body, indent=2) + "\n"
    return text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def subcommands(config: str) -> tuple[str, ...]:
    """The subcommands a config admits, in the order they are run."""
    single = parse_config(config).lam is not None
    return ("eigen", "torsion", "solve" if single else "sweep", "verify")


def digest_lines(config: str, n: int | None = None) -> list[str]:
    """One `<sha256>  <name>` line per output file and per stdout of config."""
    label = os.path.basename(config)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        if n is not None:
            with open(config, encoding="utf-8") as fh:
                text = re.sub(r"(?m)^\s*n\s*=.*$", "n = %d" % n, fh.read())
            config = os.path.join(tmp, label)
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
        for sub in subcommands(config):
            out_dir = os.path.join(tmp, sub)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([sub, config, "--out", out_dir])
            lines.append("%s  %s:%s/stdout (exit %d)"
                         % (_digest(normalise(stdout.getvalue(), out_dir)), label, sub, code))
            for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    text = normalise(fh.read(), out_dir)
                lines.append("%s  %s:%s/%s" % (_digest(text), label, sub, name))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, help="replace the configs' n")
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    args = parser.parse_args(argv)
    for config in args.configs:
        for line in digest_lines(config, args.n):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
