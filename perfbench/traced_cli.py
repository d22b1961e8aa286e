"""``python -m qnswitch.cli`` with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py LAYERS_JSON SPANS_JSONL OP_ID CLI_ARGS...

Imports ``qnswitch.cli``, installs the tracer, calls ``main`` with the
remaining arguments, and writes the op's layer figures to LAYERS_JSON and
its spans to SPANS_JSONL (appended). Exits with ``main``'s exit code.
"""

from __future__ import annotations

import json
import sys

import qnswitch.cli as cli
from tracer import Tracer


def main() -> int:
    layers_path, spans_path, op_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    code = cli.main(sys.argv[4:])
    layers = tracer.end_op()
    tracer.uninstall()
    tracer.dump_spans(spans_path)
    with open(layers_path, "w", encoding="utf-8") as handle:
        json.dump(layers, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
