"""Keep the ``LmReport``s that a camkit solve discards.

``kept_reports("camkit.sfm")`` patches ``levenberg_marquardt`` in that module
for the length of a ``with`` block and yields the list its calls append
their reports to. The scaling scripts beside this one import it.
"""

import contextlib
import importlib


@contextlib.contextmanager
def kept_reports(module_name: str):
    module = importlib.import_module(module_name)
    reports = []
    solver = module.levenberg_marquardt

    def keep(*args, **kwargs):
        reports.append(solver(*args, **kwargs))
        return reports[-1]

    module.levenberg_marquardt = keep
    try:
        yield reports
    finally:
        module.levenberg_marquardt = solver
