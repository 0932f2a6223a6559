"""Byte pins for every file the CLI writes on the small test config.

The hashes were recorded before the data layer moved to a code matrix and
before the CLI and ``run_pipeline`` shared one set of stage functions; a
refactor that keeps behaviour keeps every byte.
"""

from __future__ import annotations

import hashlib
import json

from riskminer.classifiers import KINDS
from riskminer.cli import main
from test_pipeline import small_config_doc

PINS = {
    "augmented.csv": "4059066ee6ad37cb19fe68ba3a7e041c609e75388d1197916beeaa0cdd40c8a5",
    "data.csv": "7980c1188306f0272070cdde235e6d738a42fe12e17e1c33f99bdb2f282a318e",
    "elimination.csv": "b6f4b079ccbf5f3b7a74e3cfe63b097df9ad407973a206b8c2202539fa04e2ff",
    "metrics.json": "b4f6789fc39551d134b69a1e313b3cb7e133d3d49e6f2114fb840e2e0b9468ef",
    "model.json": "93c45c7dd079ed0742e4ab9d3c6eaadd2306b855c61f96b79a0a25a3a19e2cf4",
    "pipeline/confusion.csv": "5fd66a77ad14da08ff800223e5a2bb3272bd32ff73d8ebb378b2b2fa76513500",
    "pipeline/elimination.csv": "66ec29e3732dec5fa78aac4470e0701d077037730c3f77a904fb85f52c0e7f51",
    "pipeline/metrics.csv": "d96f601de555f89b72c6f2e06de0dd49a91afbdc0c25a3f90a4c7b6efd9915ac",
    "pipeline/ranking.csv": "17f5368506bef3f7c59ab58b7c257c5cd0ef30564976fca5c4da5c74ba7f6bbe",
    "pipeline/report.json": "a610d6d283431f8e885fba399c0481a1e3a4db8a08be4e4a5f3d0bffb8426055",
    "pipeline/roc_DT.csv": "1fde01af1d77ffdcf9918486b08441222976dd519f7a4c5d92d2f0395c6037fe",
    "pipeline/roc_GB.csv": "294dffe9ae9e0540e022b68b900d0bb09a393cc578a70954701c1ae2edab5359",
    "pipeline/roc_GNB.csv": "f178e299f04da1e4d1da110c0e235da08f1ab7aa5a397db709a5808473006186",
    "pipeline/roc_LR.csv": "b93eb8a25866fe1f361f282db8a1a29b81c2af32c2dbe9ea83db2627f425f98a",
    "pipeline/roc_RF.csv": "d1420c0cca2d7e296b017ad98261a9e99970a7e4d1e960503cef2d7ace5197f3",
    "pipeline/roc_SVC.csv": "9644591116637cfdb6ac7e15375745dbc060a000d7c0ea177cc5d4f90710530b",
    "pipeline/rules.csv": "d29b69cc81f9283d67c727ba0fce612b40a949a3fb1f1a9c88af264fffc1fe7c",
    "ranking.csv": "17f5368506bef3f7c59ab58b7c257c5cd0ef30564976fca5c4da5c74ba7f6bbe",
    "roc.csv": "f9693d2845f2da49f97676022393c9b3c9ac9ce97c76cbe0755b953f9259281e",
    "rules.csv": "d29b69cc81f9283d67c727ba0fce612b40a949a3fb1f1a9c88af264fffc1fe7c",
    "selection.json": "6a4cdc3e175038e80ce9dbb3a710df7577d88dea75cd39266a7a455ad1e24e08",
}


def test_cli_output_bytes_match_pins(tmp_path):
    doc = small_config_doc()
    doc["learners"] = list(KINDS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    data, aug = str(out / "data.csv"), str(out / "augmented.csv")
    commands = [
        ["pipeline", "--config", str(config), "--out", str(out / "pipeline")],
        ["generate", "--config", str(config), "--out", data],
        ["augment", "--input", data, "--seed", "11", "--out", aug],
        ["rank", "--input", aug, "--out", str(out / "ranking.csv")],
        ["eliminate", "--input", aug, "--seed", "11", "--learners", "DT,GNB,LR", "--min-size", "2",
         "--out", str(out / "elimination.csv"), "--selection", str(out / "selection.json")],
        ["mine", "--input", aug, "--out", str(out / "rules.csv")],
        ["train", "--input", aug, "--learner", "RF", "--features-file", str(out / "selection.json"),
         "--out", str(out / "model.json")],
        ["evaluate", "--model", str(out / "model.json"), "--input", data,
         "--out", str(out / "metrics.json"), "--roc", str(out / "roc.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    assert digests == PINS
