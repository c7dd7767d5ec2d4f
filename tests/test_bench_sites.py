"""The traced benchmark wraps package functions by name; check the names exist.

``bench/run.py`` looks every ``SITES`` entry up as ``vars(owner)[attr]``, so
a name the package stops defining would crash only the traced benchmark run.
This test imports the script without running it and changes nothing there.
"""

import sys


def test_every_traced_site_is_defined_where_it_is_looked_up(bench_run):
    # The script must look at the package the tests import, not a second copy.
    assert bench_run.engine is sys.modules["fabflock.engine"]
    assert bench_run.SITES
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, sites in bench_run.SITES.items()
               for owner, attr in sites if attr not in vars(owner)]
    assert missing == []
