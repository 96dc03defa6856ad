"""repro: a Python reproduction of the Hydro stack from
"New Directions in Cloud Programming" (CIDR 2021).

The package mirrors the paper's architecture:

* :mod:`repro.core` — HydroLogic, the declarative PACT intermediate
  representation (program semantics, availability, consistency and target
  facets) plus its single-node transducer interpreter.
* :mod:`repro.compiler` — Hydrolysis: deployment planning and simulated
  deployment.
* :mod:`repro.lifting` — Hydraulic: lifting actors, futures, MPI collectives
  and sequential ORM-style programs into HydroLogic.
* :mod:`repro.lattices`, :mod:`repro.cluster`, :mod:`repro.storage`,
  :mod:`repro.faas`, :mod:`repro.consistency`, :mod:`repro.availability`,
  :mod:`repro.synthesis`, :mod:`repro.placement` — the substrates the stack
  needs (CRDT lattices, a simulated cloud, an Anna-style KVS, a FaaS
  baseline, consistency mechanisms, replication, data-layout synthesis and
  the target-facet optimizer).
* :mod:`repro.apps` — example applications, including the paper's COVID
  tracker running example.

Quickstart::

    from repro.apps.covid import build_covid_program
    from repro.core import SingleNodeInterpreter

    program = build_covid_program(vaccine_count=100)
    app = SingleNodeInterpreter(program)
    app.call_and_run("add_person", pid=1)
    app.call_and_run("add_person", pid=2)
    app.call_and_run("add_contact", id1=1, id2=2)
    print(app.call_and_run("trace", pid=1))   # -> [2]
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
