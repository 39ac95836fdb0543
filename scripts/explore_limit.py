#!/usr/bin/env python3
"""Print the first elements of a dilator's limit order.

For the successor dilator the image of each element under the canonical
collapse into the naturals is printed alongside, which makes the limit's
order type visible at a glance.
"""

import argparse
import sys

from bhfix.cli import natural, parse_selector
from bhfix.interpret import OmegaSuccessorWitness, embed_bh
from bhfix.limits import Tower
from bhfix.syntax import format_bh


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dilator", default="successor")
    parser.add_argument("--stages", type=natural, default=4)
    parser.add_argument("--budget", type=natural, default=12)
    args = parser.parse_args()

    dilator = parse_selector(args.dilator)
    tower = Tower(dilator)
    listed = tower.enumerate(args.stages, args.budget)
    witness = OmegaSuccessorWitness() if dilator.name == "successor" else None
    for e in listed:
        line = format_bh(dilator, e)
        if witness is not None:
            line += f"    -> {embed_bh(witness, tower, e)}"
        print(line)
    print(f"exhaustive={'true' if listed.exhaustive else 'false'} count={len(listed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
