"""The ``schubert enumerate`` listing of a table, two ways.

``cli_listing`` is the JSON text the CLI writes, through the CLI's own
writer ``_write_json``, less the final newline.  ``listing_obj`` builds the
same listing as a plain object, one dict per class, so
``json.dumps(listing_obj(t), indent=1, sort_keys=True)`` must equal
``cli_listing(t)`` byte for byte.
"""

import io

from schubert.cli import JobSpec, _run_enumerate, _write_json


def cli_listing(table) -> str:
    spec = JobSpec("enumerate", table.lie_type, tuple(sorted(table.K)))
    out = io.StringIO()
    _write_json(_run_enumerate(spec, table), out)
    text = out.getvalue()
    assert text.endswith("\n")
    return text[:-1]


def listing_obj(table) -> dict:
    return {
        "lie_type": str(table.lie_type),
        "K": sorted(table.K),
        "complete": table.complete,
        "max_length": table.max_length,
        "beta": list(table.betti),
        "count": table.total,
        "elements": [{"r": r, "i": i, "word": list(w.word)} for r, i, w in table],
    }
