"""Example applications built on the public HydroLogic API.

* :mod:`repro.apps.covid` — the paper's running example (Figures 2 and 3):
  a COVID-19 contact-tracing backend, provided both as sequential Python
  (the Figure 2 baseline) and as a lifted :class:`HydroProgram`.
* :mod:`repro.apps.shopping_cart` — the Dynamo shopping-cart example used in
  §7.2's discussion of consistency placement (its sealed checkout is
  ``examples/shopping_cart_sealing.py``).
* :mod:`repro.apps.collab_edit` — a grow-only collaborative editing/tagging
  service in the spirit of the monotone design patterns of §1.2.
"""

from repro.apps.covid import SequentialCovidTracker, build_covid_program
from repro.apps.shopping_cart import build_cart_program
from repro.apps.collab_edit import build_collab_program

__all__ = [
    "SequentialCovidTracker",
    "build_covid_program",
    "build_cart_program",
    "build_collab_program",
]
