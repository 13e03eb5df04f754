"""Record the golden results the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_golden.py

Writes ``golden/cli_cap.json`` (exit code and stdout SHA-256 of every
cli-cap invocation) and ``golden/warm_session.json`` (a digest of the
result of every query the warm-session stream can draw, table by table in
the order of ``workloads.table_keys``).  CLI output is promised
byte-identical across versions, so a later version that changes it fails
the benchmark's correctness check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads
from run import child_env


def record_cli() -> dict:
    env = child_env()
    out = {}
    for name, argv, expected_exit in workloads.CLI_CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "qshuffle.cli", *argv], env=env, capture_output=True, check=False
        )
        if proc.returncode != expected_exit:
            raise SystemExit(f"{name}: exit {proc.returncode}, expected {expected_exit}")
        out[name] = {"exit": proc.returncode, "stdout_sha256": workloads.sha256_bytes(proc.stdout)}
    return out


def record_warm() -> dict:
    sys.path.insert(0, os.path.abspath("src"))
    import qshuffle

    session = workloads.WarmSession(qshuffle)
    tables = {}
    for table in workloads.WARM_TABLES:
        digests = []
        for key in workloads.table_keys(table):
            digests.append(session.digest(session.run(session.prepare(table, key))))
        tables[table] = "".join(digests)
    return {"digest_hex": workloads.DIGEST_HEX, "tables": tables}


def main() -> int:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for path, record in ((workloads.CLI_GOLDEN, record_cli), (workloads.WARM_GOLDEN, record_warm)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
