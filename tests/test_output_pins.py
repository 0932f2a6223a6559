"""Byte pins for every file the CLI writes on the small test config.

The hashes were recorded before the data layer moved to a code matrix and
before the CLI and ``run_pipeline`` shared one set of stage functions; a
refactor that keeps behaviour keeps every byte. The report, model and ROC
pins were re-recorded when the echo kept only the hyperparameters a learner
reads, models moved to format 2 and ROC points became plain floats; each
new file equals the old one with exactly those edits. The model pin was
re-recorded again for model format 3 (the same trees as per-node lists in
preorder) and the report pin when the config echo lost ``smote.seed``.
The SVC ROC and report pins were re-recorded when SVC moved to the
second-order SMO solver: the report differs from the old one only in its
four SVC AUCs, the ROC file only in its SVC scores. The RF pins were
re-recorded when RF grew its trees level by level and drew each tree's
feature subsets level by level: ``pipeline/roc_RF.csv``, the RF accuracies
and AUCs of ``pipeline/report.json`` and ``pipeline/elimination.csv`` (no
removal or best learner changed), and the RF ``model.json`` with the
``metrics.json`` and ``roc.csv`` that evaluate it. The ``model.json`` pin
was re-recorded when fits kept the grower's node numbering, level by level,
instead of renumbering each tree to preorder: the same file with its nodes
in preorder still hashes to the old pin, ``PREORDER_MODEL``. The
``pipeline/report.json`` pin was re-recorded when p-values came from the
chi-squared closed form instead of the incomplete-gamma series and continued
fraction: only the last digits of its ``p_value`` lines moved (19 lines, at
most 3.1e-14 relative), and ranking order and keep flags did not. The
``pipeline/roc_GB.csv`` pin was re-recorded when GB leaf steps became sums
over each leaf's rows in row order instead of pairwise sums: only the last
digits of one threshold moved (1.5e-16 relative).
"""

from __future__ import annotations

import hashlib
import json

import tree_oracle
from riskminer.classifiers import KINDS
from riskminer.cli import main
from test_pipeline import small_config_doc

PINS = {
    "augmented.csv": "4059066ee6ad37cb19fe68ba3a7e041c609e75388d1197916beeaa0cdd40c8a5",
    "data.csv": "7980c1188306f0272070cdde235e6d738a42fe12e17e1c33f99bdb2f282a318e",
    "elimination.csv": "b6f4b079ccbf5f3b7a74e3cfe63b097df9ad407973a206b8c2202539fa04e2ff",
    "metrics.json": "61242f4c7a575690276ee71b17ff510f7ca042a54a7d57b450d440bf0923cc81",
    "model.json": "67088c929e37359000da13c80bb75a98f08e46dc309c7f0a1d087c5d6feb19f4",
    "pipeline/confusion.csv": "5fd66a77ad14da08ff800223e5a2bb3272bd32ff73d8ebb378b2b2fa76513500",
    "pipeline/elimination.csv": "799d731cf9f170779fec4ee32584a45fb162cfe246888795f0d9a667b42955d3",
    "pipeline/metrics.csv": "d96f601de555f89b72c6f2e06de0dd49a91afbdc0c25a3f90a4c7b6efd9915ac",
    "pipeline/ranking.csv": "17f5368506bef3f7c59ab58b7c257c5cd0ef30564976fca5c4da5c74ba7f6bbe",
    "pipeline/report.json": "d55d7099802831e8f195c332f674edd91eaaa278574772744480c339c84f9ea9",
    "pipeline/roc_DT.csv": "d783de2895ab6b1c370a7acf4206d171f406384ef1ebf5243bc86075d6aad76a",
    "pipeline/roc_GB.csv": "af5acaeb2c0cabb73d4f50282d054241154a2a1520ec282118979590274e81ab",
    "pipeline/roc_GNB.csv": "19f577214998dc161940cc86c5508dd5ea80af9a4230d36ab06226ee666638cd",
    "pipeline/roc_LR.csv": "c35ef841e4a7ed73146c3094086d757a480dca37c46d20f7e7dd8251f48543bb",
    "pipeline/roc_RF.csv": "3ac93e72d18903fe824597eebb8647815fc6631b8c9e82aaf0cadfa2106390f6",
    "pipeline/roc_SVC.csv": "5a7d1659fc46979226e75d5c234ec8d8c2e43c2a22829e70072852faca3ec1c7",
    "pipeline/rules.csv": "d29b69cc81f9283d67c727ba0fce612b40a949a3fb1f1a9c88af264fffc1fe7c",
    "ranking.csv": "17f5368506bef3f7c59ab58b7c257c5cd0ef30564976fca5c4da5c74ba7f6bbe",
    "roc.csv": "10727d134f68ac90cc42b7943629550f193bb4060233926be5b92d7b941496ae",
    "rules.csv": "d29b69cc81f9283d67c727ba0fce612b40a949a3fb1f1a9c88af264fffc1fe7c",
    "selection.json": "6a4cdc3e175038e80ce9dbb3a710df7577d88dea75cd39266a7a455ad1e24e08",
}
PREORDER_MODEL = "d83aff18849d07f331423a1d5b40a6975f10cc57210f521ecc2e5fd95f0e0cbf"


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
    doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
    doc["params"].update(tree_oracle.preorder(doc["params"])[0])
    preorder = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(preorder.encode()).hexdigest() == PREORDER_MODEL
