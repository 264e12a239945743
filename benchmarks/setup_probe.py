"""Set-up of one operation, without stepping: run as a fresh process.

Imports the qzak CLI, resolves the config file the way the CLI does and
builds the initial data, then prints its phase times as one JSON line.

    python3 setup_probe.py <subcommand> <config.json>
"""

import json
import sys
import time

start = time.perf_counter()
import qzak.cli  # noqa: E402  (the import is what is being timed)
imported = time.perf_counter()

from qzak.config import resolve_config  # noqa: E402
from qzak.state import preset_initial_data  # noqa: E402

command, path = sys.argv[1], sys.argv[2]
with open(path) as fh:
    raw = json.load(fh)
raw.setdefault("experiment", command)
cfg = resolve_config(raw)
resolved = time.perf_counter()
sim = cfg.sim
preset_initial_data(cfg.data_kind, cfg.data_params, sim.grid, sim.eps)
done = time.perf_counter()
print(json.dumps({"cli.import_ms": 1e3 * (imported - start),
                  "config.resolve_ms": 1e3 * (resolved - imported),
                  "state.preset_ms": 1e3 * (done - resolved),
                  "qzak_file": qzak.cli.__file__}))
