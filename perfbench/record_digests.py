"""Record the SHA-256 of every construction CLI output the benchmark checks.

    python3 perfbench/record_digests.py

Rewrites ``construction_digests.json`` from the current sources.  The file
pins byte-identical CLI output for the same seeds, so rerun this only when
the output format is meant to change, and say so in the change.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import construction  # noqa: E402


def main() -> int:
    digests = {}
    for name in construction.EXPERIMENTS:
        digests[name] = {}
        for cli_seed in range(construction.CLI_SEEDS):
            code, output = construction.run_cli(construction.argv_for(name, cli_seed))
            if code != 0:
                print(f"{name} --seed {cli_seed} exited {code}", file=sys.stderr)
                return 1
            digests[name][str(cli_seed)] = hashlib.sha256(output).hexdigest()
    with open(construction.DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
