"""Record the reference stdout of every CLI job of the benchmark.

    python3 perfbench/record_reference.py

Runs ``python -m quasilie --seed 0 ...`` for each job in run.CLI_JOBS from
the checkout's ``src/`` and writes perfbench/reference/<job id>.out.  The
committed files were recorded at the seed commit; re-record only when a
change to the CLI output is intended.
"""

import subprocess
import sys

from run import CLI_JOBS, REFERENCE, ROOT, child_env


def main():
    REFERENCE.mkdir(exist_ok=True)
    for jobs in CLI_JOBS.values():
        for job_id, args in jobs:
            out = subprocess.run(
                [sys.executable, "-m", "quasilie", "--seed", "0",
                 *args.split()], cwd=ROOT, env=child_env(), check=True,
                stdout=subprocess.PIPE).stdout
            (REFERENCE / f"{job_id}.out").write_bytes(out)
            print(f"{job_id}: {len(out)} bytes")


if __name__ == "__main__":
    main()
