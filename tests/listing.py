"""The ``schubert enumerate`` listing of a table, two ways.

``cli_listing`` is the JSON text the CLI writes, rendered straight from the
table's levels.  ``listing_obj`` builds the same listing as a plain object,
one dict per class, so ``json.dumps(listing_obj(t), indent=1,
sort_keys=True)`` must equal ``cli_listing(t)`` byte for byte.
"""

from schubert.cli import JobSpec, _dumps, _run_enumerate


def cli_listing(table) -> str:
    spec = JobSpec("enumerate", table.lie_type, tuple(sorted(table.K)))
    return _dumps(_run_enumerate(spec, table))


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
