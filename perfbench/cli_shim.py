"""Run the neubound CLI with layer spans recorded, for traced CLI runs.

Usage: python cli_shim.py SPANS_JSON ARGS...  behaves like
`python -m neubound.cli ARGS...` and also writes the spans of the import
and of main() to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import neubound.cli

    imported = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        code = tracer.span("cli.main", neubound.cli.main, argv)
    finally:
        tracer.restore()
        import_span = [None, -1, None, "cli.import", start, imported, False, 0]
        Path(spans_path).write_text(json.dumps([import_span] + tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
