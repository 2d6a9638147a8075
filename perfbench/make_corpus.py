"""Build a stored progress corpus: well-formed and singly-ill-formed types.

Screening types for well-formedness is the expensive part (about a minute
for 200 well-formed types), so the corpus is built once per seed pair and
stored as printed types.  Parent and changed code then explore identical
systems even when a change alters well-formedness verdicts.

Usage, from the root of the repository:

    python3 perfbench/make_corpus.py WF_SEED ILL_SEED

The file is written to perfbench/corpus/progress-WF_SEED-ILL_SEED.txt with
one tab-separated line per type: ``wf <type>`` or ``ill <condition> <type>``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from timedsessions.generate import ill_formed_types, well_formed_types  # noqa: E402
from timedsessions.parser import parse_type  # noqa: E402
from timedsessions.sessiontypes import format_type  # noqa: E402

# well-formed : singly-ill-formed, as in the acceptance suite
WF_COUNT = 200
ILL_COUNT = 50


def printed(node) -> str:
    text = format_type(node)
    if parse_type(text) != node:
        raise SystemExit(f"type does not survive a print/parse round trip: {text}")
    return text


def main(argv) -> int:
    wf_seed, ill_seed = int(argv[0]), int(argv[1])
    lines = [f"wf\t{printed(node)}"
             for node in well_formed_types(WF_COUNT, seed=wf_seed)]
    lines += [f"ill\t{condition}\t{printed(node)}"
              for node, condition in ill_formed_types(ILL_COUNT, seed=ill_seed)]
    out = HERE / "corpus" / f"progress-{wf_seed}-{ill_seed}.txt"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} types to {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
