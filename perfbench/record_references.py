"""Record the reference metrics of every workload and scenario seed.

Usage: python3 perfbench/record_references.py

Run on the commit whose outputs are the reference; it rewrites
perfbench/references.json, which run.py checks every request against.
"""

import json
import shutil
import tempfile

import env


def main():
    env.prepare()
    env.import_dpsim()
    import workloads

    references = {}
    workdir = tempfile.mkdtemp(prefix=".work-", dir=env.HERE)
    try:
        scenario_path = f"{workdir}/scenario.json"
        for workload in workloads.WORKLOADS.values():
            table = references[workload.name] = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                with open(scenario_path, "w") as fh:
                    json.dump(workload.scenario_for(seed), fh)
                result = workloads.request(workload, scenario_path, f"{workdir}/trace.csv")
                table[str(seed)] = workloads.metrics_dict(result.metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
