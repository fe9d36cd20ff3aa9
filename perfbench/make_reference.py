"""Regenerate ``perfbench/reference.json`` from the current program.

Run from the root of a checkout after a change that is meant to alter the
simulated results::

    python3 perfbench/make_reference.py

It records every registry scenario's checked outputs and the 100 job
results of the ``campaign.cold100`` grid.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.scenarios import all_scenarios, run_scenario

    from perfbench.harness import OUT_DIR
    from perfbench.workloads import (
        REFERENCE_PATH,
        campaign_spec,
        run_pinned_campaign,
        scenario_digest,
    )

    registry = {spec.name: scenario_digest(run_scenario(spec)) for spec in all_scenarios()}
    directory = OUT_DIR / "reference-campaign"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        run = run_pinned_campaign(campaign_spec(), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    campaign = {result.job_id: result.to_dict() for result in run.results}
    REFERENCE_PATH.write_text(
        json.dumps({"registry": registry, "campaign": campaign}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
