"""vacuum-shake: quantum radiation from a modulated two-level emitter.

Subpackages
-----------
modes       discretized mode grids and the 1D/3D rate geometries
coupling    time-dependent atom-field coupling models
dressing    time-dependent dressing frame (xi, eta, pair kernel, phase)
fock        brute-force truncated-Fock-space propagator (the oracle)
radiation   perturbative pair emission: amplitudes, golden-rule rates, sweeps
scattering  1D single-photon scattering with three-photon emission
table       the one CSV writer behind every artifact
cli         scenario runner behind the ``vacuum-shake`` command

Importing the package loads numpy and each module above except ``cli``.
Importing ``cli`` adds ``json`` and ``resource``, which is all a scenario
run needs: paths go through ``os.path``, ``argparse`` is imported only by
``cli.main`` and ``csv`` only by ``compare``, and the schema is read from
the file beside ``cli.py``.  The immutable geometries, grids, profiles
and packets are plain classes, so no ``dataclasses`` module is loaded.
The time from this file's first statement to its last is written to each
run's ``manifest.json`` as ``stages.import_s``: it includes numpy's import
where nothing imported numpy before, and excludes ``cli``'s own.

Importing the package loads no scipy module.  Only ``fock`` uses scipy,
and it imports ``scipy.sparse`` on first use, for the CSR products beyond
``fock.DENSE_ENTRIES_MAX``: those of Fock sectors and displacement
generators of more than 200 states.  An OracleCompare run that reaches
them, n_max 5 and above on its four modes, has that import in its manifest
``wall_time_s``.  AppendixAVerify and OracleCompare up to n_max 4 are
dense and need numpy alone.
"""

from time import perf_counter as _perf_counter

_import_started = _perf_counter()

__version__ = "0.1.0"

from . import coupling, dressing, fock, modes, radiation, scattering, table  # noqa: E402, F401
from .errors import (  # noqa: E402, F401
    CapacityError,
    ConfigError,
    DomainError,
    FitQualityError,
    NumericalError,
    VacuumShakeError,
)

_import_s = _perf_counter() - _import_started
