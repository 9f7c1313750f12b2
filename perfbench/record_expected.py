"""Record the correctness gates' reference data into expected.json.

    python3 perfbench/record_expected.py

Writes the per-suite check counts of the verify-window call and the sha256
of every export-trees file.  The gates hold every later commit to these
values, so re-record only when the benchmark's inputs change.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from topograph import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(workloads.VERIFY_ARGV))
    if code != 0:
        sys.exit(f"verify exited {code}")
    verify = workloads.verify_outcome(out.getvalue())

    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_out", "record")
    os.makedirs(scratch, exist_ok=True)
    exports = {}
    for kind, depth, fmt in workloads.make_inputs("export-trees", 0)["exports"]:
        name = workloads.export_name(kind, depth, fmt)
        path = os.path.join(scratch, name)
        code = cli.main(workloads.export_argv(kind, depth, fmt, path))
        if code != 0:
            sys.exit(f"{name}: tree exited {code}")
        exports[name] = workloads.sha256_file(path)
        os.remove(path)
    os.rmdir(scratch)

    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"verify": verify, "exports": exports}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
