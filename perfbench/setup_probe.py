"""Time ddnsim's set-up in a fresh interpreter; print the times as JSON.

Usage: python3 setup_probe.py SRC_DIR SEED [CONFIG_PATH]

Set-up is what a run does before its first event: import the package with
its CLI, load and validate the workload config, and build one policy's
device, controller and host (``run_policy`` on an empty trace).
"""

import json
import sys
import time


def main(src, seed, config_path=None):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import ddnsim.cli  # noqa: F401  (the import a CLI invocation pays)
    from ddnsim import RunConfig, load_config, run_policy

    imported = time.perf_counter()
    cfg = load_config(config_path) if config_path else RunConfig()
    cfg.seed = int(seed)
    cfg.validate()
    configured = time.perf_counter()
    run_policy(cfg, cfg.run_policies()[0], [])
    built = time.perf_counter()
    print(json.dumps({
        "module": ddnsim.__file__,
        "cli.import_s": imported - start,
        "config.load_validate_s": configured - imported,
        "device.construct_s": built - configured,
        "setup_s": built - start,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
