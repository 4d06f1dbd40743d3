"""Set-up probe, timed from outside as one fresh interpreter.

Does what a CLI user pays before the first iteration: import
``rslimits.cli``, parse the workload's model files and build their
quadrature nodes.  Usage (from run.py):

    python3 perfbench/probe.py SRC_DIR SPEC_JSON

SPEC_JSON is a list of [model path, kind, quadrature] with kind "model" or
"rotinv" and quadrature null, ["gauss-hermite", nodes, dim] or
["monte-carlo", samples, dim, seed].
"""

import json
import sys


def set_up(spec):
    from rslimits import cli, quadrature

    for path, kind, quad in spec:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        (cli.parse_rotinv_model if kind == "rotinv" else cli.parse_model)(text)
        if quad is None:
            continue
        if quad[0] == "gauss-hermite":
            quadrature.gauss_hermite(quad[1]).nodes_weights(quad[2])
        else:
            quadrature.monte_carlo(quad[1], seed=quad[3]).nodes_weights(quad[2])


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    set_up(json.loads(sys.argv[2]))
