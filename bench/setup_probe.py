"""Set-up cost every CLI call pays, run in a fresh interpreter.

Imports ``thermoflow.cli`` (which imports ``thermoflow.experiments``) and
resolves the workload's configs, then exits.  The caller times the process.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

from workloads import configs_for, use_checkout_source

use_checkout_source()

import thermoflow.cli  # noqa: E402,F401
from thermoflow.experiments import resolve_config  # noqa: E402

for _label, config in configs_for(sys.argv[1], int(sys.argv[2])):
    resolve_config(config)
