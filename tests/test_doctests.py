import doctest

import busterfixer.graph
import busterfixer.reconnect


def test_module_doctests():
    # each listed module keeps at least one example, so a module whose examples vanish fails here
    results = {m.__name__: doctest.testmod(m) for m in (busterfixer.graph, busterfixer.reconnect)}
    assert all(r.failed == 0 for r in results.values()), results
    assert all(r.attempted >= 1 for r in results.values()), results
