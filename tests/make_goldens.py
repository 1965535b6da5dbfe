"""Freeze the bundled-scenario CSV and metrics, and the CSV of the bundled
config at one RK4 step per 0.01-s sample, as regression goldens.

Run `python3 tests/make_goldens.py` only after the rest of the test
suite is green; the acceptance gate then holds future builds to these
files bit-for-bit.
"""

from pathlib import Path

from tankmpc import default_run_config, loads_config, run_closed_loop, summarize

from test_acceptance import HOLD_CONFIG, metrics_as_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    scenario = default_run_config().scenario
    log = run_closed_loop(scenario)
    (GOLDEN_DIR / "default_scenario.csv").write_text(log.to_csv_text(), encoding="utf-8")
    (GOLDEN_DIR / "default_metrics.json").write_text(
        metrics_as_json(summarize(log, scenario)), encoding="utf-8"
    )
    hold = run_closed_loop(loads_config(HOLD_CONFIG).scenario)
    (GOLDEN_DIR / "hold_scenario.csv").write_text(hold.to_csv_text(), encoding="utf-8")
    print(f"wrote goldens to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
