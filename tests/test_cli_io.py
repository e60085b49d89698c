"""Command-line workflow, checkpoints, run configs, and chain-file IO."""

import dataclasses
import itertools
import json
import os
import re
import threading

import numpy as np
import pytest

from stepasm import cli
from stepasm.chainio import parse_chain_coords, write_chain_file
from stepasm.checkpoint import load_checkpoint, load_models, save_models
from stepasm.config import (
    RunConfig,
    config_from_dict,
    config_hash,
    load_config,
)
from stepasm.datagen import (
    gen_synthetic_multimer,
    load_multimer,
    load_multimers,
    multimer_to_dict,
)
from stepasm.errors import (
    ConfigError,
    EmptyFileError,
    MalformedRecordError,
    ShapeMismatchError,
    ShortChainWarning,
)
from stepasm.graphs import ChainStructure
from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams, params_hash
from stepasm.prompt import PromptParams

TINY_CONFIG = {
    "seed": 3,
    "data": {"counts": {"3": 2, "4": 2}, "samples_per_multimer": 6},
    "model": {"hidden_dim": 16, "head_hidden": 16, "dropout": 0.0},
    "pretrain": {"lr": 0.01, "epochs": 8, "batch_size": 16, "patience": 8},
    "prompt": {
        "lr": 0.003, "epochs": 6, "batch_size": 64, "patience": 6,
        "val_fraction": 0.0, "mlp_hidden": 16,
    },
}


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """gen-data -> pretrain -> prompt-tune, all through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(data)]) == 0
    pre = root / "pretrained.npz"
    assert cli.main(["pretrain", "--config", str(cfg_path),
                     "--data", str(data), "--out", str(pre)]) == 0
    tuned = root / "tuned.npz"
    assert cli.main(["prompt-tune", "--config", str(cfg_path),
                     "--data", str(data), "--ckpt", str(pre),
                     "--out", str(tuned)]) == 0
    return root, cfg_path, data, pre, tuned


def test_gen_data_writes_manifest_and_datasets(workflow):
    _, cfg_path, data, *_ = workflow
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["n_multimers"] == 4
    assert manifest["counts"] == {"3": 2, "4": 2}
    assert manifest["config_hash"] == config_hash(load_config(cfg_path))
    for name in ("multimers.jsonl", "source.jsonl", "target.jsonl"):
        assert (data / name).exists()
    assert manifest["n_source"] > 0 and manifest["n_target"] > 0
    assert manifest["n_target_large"] == 0


def test_gen_data_deterministic_for_a_seed(workflow, tmp_path):
    _, cfg_path, data, *_ = workflow
    again = tmp_path / "data2"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(again)]) == 0
    for name in ("multimers.jsonl", "source.jsonl", "target.jsonl"):
        assert (again / name).read_text() == (data / name).read_text()


def test_no_temp_files_left_behind(workflow):
    root, *_ = workflow
    strays = [
        os.path.join(base, f)
        for base, _, files in os.walk(root)
        for f in files
        if f.startswith(".tmp-")
    ]
    assert strays == []


def test_pretrain_checkpoint_roundtrips(workflow):
    _, cfg_path, _, pre, _ = workflow
    gin, head, prompts, meta = load_models(pre)
    assert prompts == {}
    assert meta["stage"] == "pretrain"
    assert meta["seed"] == 3
    assert meta["config_hash"] == config_hash(load_config(cfg_path))
    assert gin.config.hidden_dim == 16
    with open(str(pre) + ".log.json") as fh:
        log = json.load(fh)
    assert len(log["epochs"]) == 8


def test_tuned_checkpoint_carries_the_prompt(workflow):
    _, _, _, pre, tuned = workflow
    gin_pre, head_pre, _, _ = load_models(pre)
    gin, head, prompts, meta = load_models(tuned)
    assert set(prompts) == {"prompt"}
    assert meta["stage"] == "prompt-tune"
    # encoder and head pass through tuning unchanged
    assert params_hash(gin.named()) == params_hash(gin_pre.named())
    assert params_hash(head.named()) == params_hash(head_pre.named())
    assert prompts["prompt"].mlp.dims == (13, 16, 16, 13)


def test_infer_writes_path_structure_and_report(workflow, tmp_path):
    _, cfg_path, data, _, tuned = workflow
    multimers = load_multimers(data / "multimers.jsonl")
    name = next(n for n, m in multimers.items() if m.n == 4)
    out = tmp_path / "pred"
    assert cli.main(["infer", "--config", str(cfg_path),
                     "--multimers", str(data / "multimers.jsonl"),
                     "--name", name, "--ckpt", str(tuned),
                     "--out", str(out)]) == 0
    with open(str(out) + ".report.json") as fh:
        report = json.load(fh)
    assert report["multimer"] == name
    assert len(report["actions"]) == 3
    # how sure each step was: one margin per action, no dimer was missing
    assert len(report["margins"]) == 3
    assert all(isinstance(x, float) for x in report["margins"])
    assert report["fallbacks"] == 0
    path_text = open(str(out) + ".path.txt").read()
    assert path_text.count("\n") == 4  # header + one line per action
    chains = parse_chain_coords(str(out) + ".structure.txt")
    assert [c.chain_id for c in chains] == [c.chain_id for c in multimers[name].chains]


def _infer_outputs(prefix):
    return [p for p in (f"{prefix}.path.txt", f"{prefix}.structure.txt",
                        f"{prefix}.report.json") if os.path.exists(p)]


def test_eval_reads_back_the_structure_infer_writes(workflow, tmp_path, capsys):
    _, _, data, _, tuned = workflow
    for name, m in load_multimers(data / "multimers.jsonl").items():
        out = tmp_path / name
        assert cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                         "--name", name, "--ckpt", str(tuned), "--out", str(out)]) == 0
        gt = tmp_path / f"{name}.gt.txt"
        write_chain_file(gt, [ChainStructure(c.chain_id, c.sequence, g)
                              for c, g in zip(m.chains, m.gt_coords)])
        report = tmp_path / f"{name}.eval.json"
        assert cli.main(["eval", "--pred", f"{out}.structure.txt", "--gt", str(gt),
                         "--out", str(report)]) == 0
        assert 0.0 < json.loads(report.read_text())["tm_mean"] <= 1.0 + 1e-9
    capsys.readouterr()


def _short_copies_of_chain_0(record):
    """Chain 0's copy in each of its dimers cut to its first 20 points."""
    for key, pair in record["dimers"].items():
        a, b = (int(v) for v in key.split("-"))
        if 0 in (a, b):
            pair[(a, b).index(0)] = pair[(a, b).index(0)][:20]


def _repeated_chain_id(record):
    record["chains"][1]["id"] = record["chains"][0]["id"]


def _chain_1_id(value):
    def mutate(record):
        record["chains"][1]["id"] = value
    return mutate


# a chain file writes ">{id}" and reads the id back stripped, so ids compare so
REPEATED = "line 1: .*chain ids repeat: \\['0', '0', '2', '3'\\]"
UNWRITABLE = "line 1: .*chain id .* is empty or spans lines"


@pytest.mark.parametrize("mutate,error,message", [
    (_short_copies_of_chain_0, "LengthMismatchError", "chain 0: 20 placed points"),
    (_repeated_chain_id, "MalformedRecordError", REPEATED),
    (_chain_1_id(" 0"), "MalformedRecordError", REPEATED),
    (_chain_1_id(0), "MalformedRecordError", REPEATED),
    (_chain_1_id(" \t"), "MalformedRecordError", UNWRITABLE),
    (_chain_1_id("1\n9"), "MalformedRecordError", UNWRITABLE),
    (_chain_1_id("1\r9"), "MalformedRecordError", UNWRITABLE),
], ids=["short-dimer-copies", "repeated-chain-id", "padded-chain-id", "int-chain-id",
        "blank-chain-id", "newline-chain-id", "return-chain-id"])
def test_infer_refuses_a_record_before_writing_anything(workflow, tmp_path, capsys,
                                                       mutate, error, message):
    _, _, data, _, tuned = workflow
    _, _, record = _first_record(data / "multimers.jsonl", 4)
    mutate(record)
    path = tmp_path / "multimers.jsonl"
    path.write_text(json.dumps(record) + "\n")
    prefix = tmp_path / "pred"
    code = cli.main(["infer", "--multimers", str(path), "--ckpt", str(tuned),
                     "--out", str(prefix)])
    assert code == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == error and re.search(message, err["message"]), err
    assert _infer_outputs(prefix) == []


@pytest.mark.parametrize("spacing", [{}, {"separators": (",", ":")}],
                         ids=["as-written", "other-spacing"])
def test_a_repeated_multimer_name_is_refused_with_its_line(tmp_path, capsys, spacing):
    records = [multimer_to_dict(gen_synthetic_multimer(n, 160 + n, name="same"))
               for n in (3, 4)]
    path = tmp_path / "multimers.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True, **spacing) + "\n"
                            for r in records))
    for load in (load_multimers, lambda p: load_multimer(p, "same")):
        with pytest.raises(MalformedRecordError, match="^line 2: multimer name 'same' repeated"):
            load(path)
    prefix = tmp_path / "pred"
    code = cli.main(["infer", "--multimers", str(path), "--name", "same",
                     "--ckpt", str(tmp_path / "unread.npz"), "--out", str(prefix)])
    assert code == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError" and err["message"].startswith("line 2: ")
    assert _infer_outputs(prefix) == []


@pytest.fixture(scope="module")
def nine_chains(workflow, tmp_path_factory):
    _, cfg_path, *_ = workflow
    nine = tmp_path_factory.mktemp("nine")
    assert cli.main(["gen-data", "--config", str(cfg_path), "--seed", "5",
                     "--n", "9", "--count", "1", "--out", str(nine)]) == 0
    return nine / "multimers.jsonl"


def test_infer_nine_chains_uses_fallback_large_prompt(workflow, nine_chains, tmp_path):
    tuned = workflow[-1]
    out = tmp_path / "nine-pred"
    assert cli.main(["infer", "--multimers", str(nine_chains),
                     "--ckpt", str(tuned), "--out", str(out)]) == 0
    report = json.loads(open(str(out) + ".report.json").read())
    assert report["n_chains"] == 9
    assert len(report["actions"]) == 8
    assert report["per_step_evals"][0] == 9 * 8


def test_infer_scores_one_prompt_with_one_pipeline(workflow, nine_chains, tmp_path,
                                                   monkeypatch):
    """A prompt-tune checkpoint has no adapted prompt, so the path past 7
    chains goes on with the pipeline, and what it keeps, of the first 7."""
    built = []

    class Counted(cli.ScoringPipeline):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(cli, "ScoringPipeline", Counted)
    assert cli.main(["infer", "--multimers", str(nine_chains), "--ckpt", str(workflow[-1]),
                     "--out", str(tmp_path / "pred")]) == 0
    assert len(built) == 1


def test_eval_cli_scores_prediction_files(workflow, tmp_path, capsys):
    _, _, data, *_ = workflow
    multimers = load_multimers(data / "multimers.jsonl")
    name, m = next(iter(multimers.items()))
    gt = tmp_path / "gt.txt"
    write_chain_file(gt, [
        ChainStructure(c.chain_id, c.sequence, g)
        for c, g in zip(m.chains, m.gt_coords)
    ])
    report_path = tmp_path / "eval.json"
    assert cli.main(["eval", "--pred", str(gt), "--gt", str(gt),
                     "--out", str(report_path)]) == 0
    shown = capsys.readouterr().out
    assert "1.0000" in shown
    report = json.loads(report_path.read_text())
    assert report["tm_mean"] == pytest.approx(1.0)
    assert report["rmsd_mean"] == pytest.approx(0.0, abs=1e-9)


def _three_chains(tmp_path):
    """A 3-chain ground-truth file and its chains."""
    m = gen_synthetic_multimer(3, 5)
    chains = [ChainStructure(c.chain_id, c.sequence, g) for c, g in zip(m.chains, m.gt_coords)]
    gt = tmp_path / "gt.txt"
    write_chain_file(gt, chains)
    return gt, chains


def test_eval_pairs_chains_by_id_not_by_file_order(tmp_path):
    gt, chains = _three_chains(tmp_path)
    rotated = tmp_path / "rotated.txt"
    write_chain_file(rotated, chains[1:] + chains[:1])
    report_path = tmp_path / "eval.json"
    assert cli.main(["eval", "--pred", str(rotated), "--gt", str(gt),
                     "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["tm_mean"] == pytest.approx(1.0)
    assert report["rmsd_mean"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("case, error", [("ids-differ", "ConfigError"),
                                         ("id-repeated", "MalformedRecordError"),
                                         ("lengths-swapped", "LengthMismatchError")])
def test_eval_rejects_chains_that_do_not_pair(tmp_path, capsys, case, error):
    gt, chains = _three_chains(tmp_path)
    pred = tmp_path / "pred.txt"
    if case == "ids-differ":
        write_chain_file(pred, [dataclasses.replace(chains[0], chain_id="Z")] + chains[1:])
    elif case == "id-repeated":
        write_chain_file(pred, chains + chains[:1])
    else:
        # the same residues in the same order, cut into chains of other lengths
        coords = np.concatenate([c.coords for c in chains])
        seqs = "".join(c.sequence for c in chains)
        cut = [0, len(chains[1]), len(chains[1]) + len(chains[0]), len(seqs)]
        write_chain_file(pred, [ChainStructure(c.chain_id, seqs[a:b], coords[a:b])
                                for c, a, b in zip(chains, cut, cut[1:])])
    assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    assert _one_json_line(capsys.readouterr().err)["error"] == error


def test_enumerate_oracle_cli(workflow, tmp_path, capsys):
    _, _, data, *_ = workflow
    out = tmp_path / "oracle.json"
    assert cli.main(["enumerate-oracle", "--multimers",
                     str(data / "multimers.jsonl"), "--all",
                     "--out", str(out)]) == 0
    assert "best score" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["best_score"] > 0.999
    assert payload["n_trees"] == len(payload["scores"])


def test_grad_check_cli(tmp_path, capsys):
    out = tmp_path / "grad.json"
    assert cli.main(["grad-check", "--graphs", "3", "--seed", "1",
                     "--out", str(out)]) == 0
    assert "max relative error" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["single"] < payload["tolerance"]
    assert payload["batched"] < payload["tolerance"]


def test_grad_check_report_carries_config_hash_and_seed(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "grad.json"
    assert cli.main(["grad-check", "--graphs", "1", "--config", str(cfg_path),
                     "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 5
    assert payload["config_hash"] == config_hash(
        config_from_dict({"seed": 5}, load_config(cfg_path)))


@pytest.mark.parametrize("argv", [
    ["grad-check", "--seed", "-1"],
    ["grad-check", "--graphs", "0"],
], ids=["seed-negative", "graphs-zero"])
def test_grad_check_rejects_bad_flags(argv, tmp_path, capsys):
    out = tmp_path / "grad.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_pretrain_keeps_a_training_group_at_high_val_fraction(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "data": {"counts": {"3": 2}, "samples_per_multimer": 4},
        "pretrain": {"epochs": 2, "val_fraction": 0.9},
    }))
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / "pre.npz")]) == 0


def test_cli_reports_errors_as_json_on_stderr(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    missing.write_text("")
    code = cli.main(["enumerate-oracle", "--multimers", str(missing)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "EmptyDatasetError" or "Error" in err["error"]


def test_cli_seed_override(workflow, tmp_path):
    _, cfg_path, *_ = workflow
    out = tmp_path / "seeded"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--seed", "9",
                     "--n", "3", "--count", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


def _first_record(path, n):
    """The lines of a multimers file, and the index and record of its first
    n-chain multimer."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["n"] == n:
            return lines, i, record
    raise AssertionError(f"no {n}-chain multimer in {path}")


def _without_chains(record):
    del record["chains"]


def _contact(pair):
    def mutate(record):
        record["contacts"][0] = list(pair)
    return mutate


@pytest.mark.parametrize("mutate", [_without_chains, _contact((0, 9)), _contact((-1, 0))],
                         ids=["no-chains", "contact-high", "contact-negative"])
def test_cli_rejects_malformed_multimer_records(workflow, tmp_path, capsys, mutate):
    _, _, data, _, tuned = workflow
    lines, i, record = _first_record(data / "multimers.jsonl", 3)
    mutate(record)
    lines[i] = json.dumps(record)
    bad = tmp_path / "multimers.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.main(["infer", "--multimers", str(bad), "--ckpt", str(tuned),
                     "--out", str(tmp_path / "pred")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith(f"line {i + 1}: ")


def test_cli_rejects_target_record_of_unknown_multimer(workflow, tmp_path, capsys):
    _, _, data, pre, _ = workflow
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "multimers.jsonl").write_text((data / "multimers.jsonl").read_text())
    lines = (data / "target.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["multimer"] = "no-such-multimer"
    lines[1] = json.dumps(record)
    (bad / "target.jsonl").write_text("\n".join(lines) + "\n")
    code = cli.main(["prompt-tune", "--data", str(bad), "--ckpt", str(pre),
                     "--out", str(tmp_path / "tuned.npz")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith("line 2: ")


def _first_chains(record, k):
    """The record cut down to its first k chains, joined by one contact."""
    record["n"] = k
    record["chains"] = record["chains"][:k]
    record["gt"] = record["gt"][:k]
    record["contacts"] = [[0, 1]] if k > 1 else []
    record["dimers"] = {"0-1": record["dimers"]["0-1"]} if k > 1 else {}
    return record


@pytest.mark.parametrize("command", ["infer", "enumerate-oracle"])
def test_cli_rejects_a_multimer_of_one_chain(workflow, tmp_path, capsys, command):
    _, _, data, _, tuned = workflow
    lines, i, _ = _first_record(data / "multimers.jsonl", 3)
    argv = {"infer": ["infer", "--ckpt", str(tuned), "--out", str(tmp_path / "pred")],
            "enumerate-oracle": ["enumerate-oracle"]}[command]

    def run(k):
        record = _first_chains(json.loads(lines[i]), k)
        path = tmp_path / f"multimers-{k}.jsonl"
        path.write_text("\n".join(lines[:i] + [json.dumps(record)]) + "\n")
        return cli.main([*argv, "--multimers", str(path), "--name", record["name"]])

    assert run(2) == 0  # two chains assemble as one dimer
    capsys.readouterr()
    assert run(1) == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith(f"line {i + 1}: ") and "two chains" in err["message"]


@pytest.mark.parametrize("label", [float("nan"), 7.5, -0.5], ids=["nan", "above", "below"])
@pytest.mark.parametrize("command,bad_file", [
    ("pretrain", "source.jsonl"),
    ("prompt-tune", "target.jsonl"),
])
def test_cli_rejects_a_label_outside_the_unit_interval(workflow, tmp_path, capsys,
                                                       command, bad_file, label):
    _, cfg_path, data, pre, _ = workflow
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("multimers.jsonl", "source.jsonl", "target.jsonl"):
        (bad / f).write_bytes((data / f).read_bytes())
    lines = (bad / bad_file).read_text().splitlines()
    record = json.loads(lines[1])
    record["y"] = label
    lines[1] = json.dumps(record)  # json writes NaN, and reads it back
    (bad / bad_file).write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.npz"
    argv = {
        "pretrain": ["pretrain", "--config", str(cfg_path), "--data", str(bad),
                     "--out", str(out)],
        "prompt-tune": ["prompt-tune", "--config", str(cfg_path), "--data", str(bad),
                        "--ckpt", str(pre), "--out", str(out)],
    }[command]
    assert cli.main(argv) == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith("line 2: ") and "[0, 1]" in err["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def picked_lines():
    """Three 3-chain multimer records, named a, b and \u03b2 (written unescaped)."""
    return [json.dumps(multimer_to_dict(gen_synthetic_multimer(3, 140 + i, name=name)),
                       ensure_ascii=False)
            for i, name in enumerate(["a", "b", "\u03b2"])]


def _oracle_for(lines, name, tmp_path):
    path = tmp_path / "multimers.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "oracle.json"
    code = cli.main(["enumerate-oracle", "--multimers", str(path), "--name", name,
                     "--out", str(out)])
    return code, out


@pytest.mark.parametrize("name", ["b", "\u03b2"], ids=["as-written", "other-escaping"])
def test_named_multimer_is_found_past_a_malformed_record(picked_lines, tmp_path, name):
    # the malformed line is never read: only the named record is decoded
    lines = [picked_lines[0], '{"name": "a", "truncated', *picked_lines[1:]]
    code, out = _oracle_for(lines, name, tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["multimer"] == name


def test_malformed_named_multimer_reports_its_line(picked_lines, tmp_path, capsys):
    record = json.loads(picked_lines[1])
    del record["chains"]
    code, _ = _oracle_for([picked_lines[0], json.dumps(record), picked_lines[2]], "b",
                          tmp_path)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith("line 2: ")


def test_unknown_multimer_name_exits_2(picked_lines, tmp_path, capsys):
    code, out = _oracle_for(picked_lines, "zzz", tmp_path)
    assert code == 2 and not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("command,bad_file", [
    ("infer", "multimers.jsonl"),
    ("enumerate-oracle", "multimers.jsonl"),
    ("pretrain", "multimers.jsonl"),
    ("pretrain", "source.jsonl"),
    ("prompt-tune", "target.jsonl"),
])
def test_cli_rejects_a_line_that_is_not_utf8(workflow, tmp_path, capsys, command, bad_file):
    _, cfg_path, data, pre, tuned = workflow
    bad = tmp_path / "data"
    bad.mkdir()
    for f in ("multimers.jsonl", "source.jsonl", "target.jsonl"):
        (bad / f).write_bytes((data / f).read_bytes())
    lines = (bad / bad_file).read_bytes().splitlines(keepends=True)
    lines[0] = b'{"name": "\xff"}\n'
    (bad / bad_file).write_bytes(b"".join(lines))
    multimers = ["--multimers", str(bad / "multimers.jsonl")]
    argv = {
        "infer": ["infer", *multimers, "--ckpt", str(tuned), "--out", str(tmp_path / "p")],
        "enumerate-oracle": ["enumerate-oracle", *multimers],
        "pretrain": ["pretrain", "--config", str(cfg_path), "--data", str(bad),
                     "--out", str(tmp_path / "pre.npz")],
        "prompt-tune": ["prompt-tune", "--config", str(cfg_path), "--data", str(bad),
                        "--ckpt", str(pre), "--out", str(tmp_path / "tuned.npz")],
    }[command]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedRecordError"
    assert err["message"].startswith("line 1: ")


@pytest.mark.parametrize("name", [None, "a"])
def test_empty_multimers_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / "multimers.jsonl"
    path.write_bytes(b"")
    argv = ["enumerate-oracle", "--multimers", str(path)]
    assert cli.main(argv + (["--name", name] if name else [])) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_lookup_in_a_file_that_cannot_be_mapped_exits_2(tmp_path, capsys):
    fifo = tmp_path / "multimers.jsonl"
    os.mkfifo(fifo)
    done, woken = threading.Event(), []

    def wake_blocked_readers():
        # a reader that opened the pipe waits for a writer; this one writes nothing
        while not done.wait(5.0):
            woken.append(True)
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader waiting
                pass

    watchdog = threading.Thread(target=wake_blocked_readers, daemon=True)
    watchdog.start()
    try:
        code = cli.main(["enumerate-oracle", "--multimers", str(fifo), "--name", "a"])
    finally:
        done.set()
        watchdog.join(timeout=10.0)
    assert code == 2 and not woken
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "not a regular file" in err["message"]


@pytest.mark.parametrize("content,error", [
    (None, "FileNotFoundError"),
    (b"not a checkpoint\n", "ConfigError"),
    (b"", "ConfigError"),
    (b"PK\x03\x04 truncated", "ConfigError"),
], ids=["missing", "text", "empty", "truncated-zip"])
def test_cli_rejects_unreadable_checkpoints(workflow, tmp_path, capsys, content, error):
    _, _, data, *_ = workflow
    ckpt = tmp_path / "model.npz"
    if content is not None:
        ckpt.write_bytes(content)
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "pred")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"sead": 1})
    with pytest.raises(ConfigError, match="model.*unknown key|unknown key"):
        config_from_dict({"model": {"hiden_dim": 3}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"pretrain": {"lr": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"prompt": {"loss": "huber"}})
    with pytest.raises(ConfigError):
        config_from_dict({"data": {"counts": {"3": 0}}})


def test_partial_sections_fill_from_defaults():
    cfg = config_from_dict({"pretrain": {"epochs": 1}, "meta": {"epochs": 2}})
    assert cfg.pretrain == dataclasses.replace(RunConfig().pretrain, epochs=1)
    assert cfg.meta == dataclasses.replace(RunConfig().meta, epochs=2)
    assert cfg.prompt == RunConfig().prompt


@pytest.mark.parametrize("config", [
    {"meta": {"epochs": 0}},
    {"model": {"hidden_dim": 0}},
    {"model": {"dropout": 1.0}},
    {"prompt": {"heads": 0}},
    {"prompt": {"val_fraction": 1.0}},
    {"seed": "abc"},
    {"seed": -1},
    {"prompt": {"epochs": 2.5}},
    {"data": {"counts": {"40": 1}}},
    {"data": {"counts": {"2": 1}}},
    {"data": {"starts": 0}},
    {"data": {"counts": {}}},
    {"data": {"counts": {"4": 2.7}}},
    {"data": {"counts": {"4": 2.0}}},
    {"data": {"counts": {"4": True}}},
    {"data": {"counts": {"4": "2"}}},
    {"data": {"counts": {"four": 2}}},
    {"meta": {"adapt_steps": -3}},
    {"meta": {"first_order": False, "inner_steps": 2}},
    {"prompt": {"heads": 14}},
], ids=["meta-epochs", "hidden-dim", "dropout", "heads", "val-fraction", "seed-type",
        "seed-negative", "epochs-type", "chain-count-high", "chain-count-low", "starts",
        "counts-empty", "count-fraction", "count-float", "count-bool", "count-string",
        "chain-count-name", "adapt-steps-negative", "second-order-inner-steps",
        "heads-above-embedding-width"])
def test_cli_rejects_bad_config_values_at_load(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [
    ("pretrain", "lr"), ("prompt", "lr"), ("meta", "inner_lr"), ("meta", "outer_lr"),
], ids=["pretrain-lr", "prompt-lr", "meta-inner-lr", "meta-outer-lr"])
def test_config_rejects_non_finite_learning_rates(section, key, value):
    # json reads NaN and Infinity, and every comparison with NaN is false
    with pytest.raises(ConfigError, match=key):
        config_from_dict({section: {key: value}})


def test_cli_rejects_a_nan_learning_rate_at_load(workflow, tmp_path, capsys):
    _, _, data, *_ = workflow
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"pretrain": {"lr": NaN}}')
    out = tmp_path / "pre.npz"
    assert cli.main(["pretrain", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def _one_json_line(text):
    lines = text.splitlines()
    assert len(lines) == 1, text
    return json.loads(lines[0])


@pytest.mark.parametrize("command,section,key,width", [
    ("pretrain", "model", "hidden_dim", 10**12),
    ("pretrain", "model", "head_hidden", 10**30),
    ("prompt-tune", "prompt", "mlp_hidden", 10**12),
])
def test_widths_that_cannot_be_allocated_exit_cleanly(workflow, tmp_path, capsys,
                                                      command, section, key, width):
    # the config loads; building the model must fail typed, before any output
    _, _, data, pre, _ = workflow
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, section: {
        **TINY_CONFIG.get(section, {}), key: width}}))
    out = tmp_path / "model.npz"
    ckpt = ["--ckpt", str(pre)] if command == "prompt-tune" else []
    capsys.readouterr()
    code = cli.main([command, "--config", str(cfg_path), "--data", str(data), *ckpt,
                     "--out", str(out)])
    assert code == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "cannot be allocated" in err["message"]
    assert not out.exists() and not os.path.exists(f"{out}.log.json")


def test_cli_rejects_a_config_nested_deeper_than_the_stack(tmp_path, capsys):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 100_000)
    out = tmp_path / "grad.json"
    assert cli.main(["grad-check", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "not valid JSON" in err["message"]
    assert not out.exists()


def test_cli_rejects_a_checkpoint_whose_metadata_nests_too_deep(workflow, tmp_path, capsys):
    _, _, data, _, tuned = workflow
    comps, _ = load_checkpoint(tuned)
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    ckpt = tmp_path / "deep.npz"
    np.savez(ckpt, __meta__=np.array("[" * 100_000), **arrays)
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "pred")])
    assert code == 2
    err = _one_json_line(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "not a checkpoint" in err["message"]


def test_zero_adapt_steps_means_no_adaptation_step():
    assert config_from_dict({"meta": {"adapt_steps": 0}}).meta_config().adapt_steps == 0


def test_cli_rejects_out_of_range_chain_count_flag(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--n", "40", "--count", "1", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert cli.main(["gen-data", "--seed", "-1", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_config_hash_stable_under_key_order(tmp_path):
    a = config_from_dict({"seed": 7, "model": {"hidden_dim": 32}})
    b = config_from_dict({"model": {"hidden_dim": 32}, "seed": 7})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(RunConfig())


def test_config_hash_pinned():
    # artifacts written by earlier versions carry these hashes; a change to the
    # config schema's keys, defaults or nesting breaks them
    assert config_hash(RunConfig()) == (
        "35a3d069c02808789478a5a24c7d9ae08efe2ad3036197bf8227088b61e24a58")
    custom = config_from_dict({
        "seed": 3,
        "pretrain": {"lr": 0.005, "epochs": 50, "loss": "bce"},
        "prompt": {"lr": 0.002, "batch_size": 64, "mlp_hidden": 256, "multi_head": True},
        "meta": {"inner_lr": 0.02, "first_order": False, "adapt_steps": 3},
    })
    assert config_hash(custom) == (
        "6f5297dc1f3eb82a80841379049326e71b71cc1a89af47dde87123cb3c4dd08e")


def test_load_config_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


@pytest.mark.parametrize("text", [b'{"seed": 1\xff}', b'{"seed": ' + b"9" * 5000 + b"}"])
def test_load_config_rejects_bytes_json_cannot_read(tmp_path, text):
    # invalid UTF-8, and an integer of more digits than Python converts
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_config_rejects_an_integer_beyond_the_float_range():
    # it would load, and training would fail converting the rate to a float
    with pytest.raises(ConfigError, match="pretrain.lr: an integer beyond the float range"):
        config_from_dict({"pretrain": {"lr": 10**400}})
    assert config_from_dict({"pretrain": {"lr": 1}}).pretrain.lr == 1


# ---------------------------------------------------------------------------
# checkpoint container


def test_save_models_roundtrip_exact(tmp_path):
    gin = GINParams.init(GINConfig(hidden_dim=8, dropout=0.1), 80)
    head = TaskHeadParams.init(13, 8, 81)
    prompt = PromptParams.init(13, 8, 82, heads=2, multi_head=True, dropout=0.3)
    prompt.standardize_from(np.random.default_rng(83).normal(size=(20, 13)))
    path = tmp_path / "models.npz"
    save_models(path, gin, head, prompts={"prompt_star": prompt},
                meta={"note": "roundtrip"})
    gin2, head2, prompts2, meta = load_models(path)
    assert params_hash(gin2.named()) == params_hash(gin.named())
    assert params_hash(head2.named()) == params_hash(head.named())
    star = prompts2["prompt_star"]
    assert params_hash(star.named()) == params_hash(prompt.named())
    assert (star.heads, star.multi_head, star.dropout) == (2, True, 0.3)
    assert np.array_equal(star.in_shift.data, prompt.in_shift.data)
    assert meta["note"] == "roundtrip"
    assert gin2.config == gin.config


def test_load_models_gives_the_stored_bits_in_arrays_of_their_own(tmp_path):
    gin = GINParams.init(GINConfig(hidden_dim=8), 120)
    head = TaskHeadParams.init(13, 8, 121)
    prompts = {"prompt_meta": PromptParams.init(13, 8, 122),
               "prompt_star": PromptParams.init(13, 8, 123, heads=2, multi_head=True)}
    for p in prompts.values():
        p.standardize_from(np.random.default_rng(124).normal(size=(20, 13)))
    path = tmp_path / "models.npz"
    save_models(path, gin, head, prompts=prompts)
    gin2, head2, prompts2, _ = load_models(path)

    def every(g, h, ps):
        out = {**g.named(), **h.named()}
        for tag, p in ps.items():
            out.update(p.named(tag))
        return out

    saved, loaded = every(gin, head, prompts), every(gin2, head2, prompts2)
    assert saved.keys() == loaded.keys()
    for name, t in loaded.items():
        assert t.data.shape == saved[name].data.shape, name
        assert np.array_equal(t.data.view(np.uint64), saved[name].data.view(np.uint64)), name
        assert t.requires_grad == saved[name].requires_grad, name
        # np.load's own array for the key, often a reshape view of its read
        # buffer: writable, and sharing memory with no other parameter
        assert t.data.dtype == np.float64 and t.data.flags.writeable, name
    for (a, ta), (b, tb) in itertools.combinations(loaded.items(), 2):
        assert not np.shares_memory(ta.data, tb.data), (a, b)


def test_checkpoint_rejects_foreign_format(tmp_path):
    gin = GINParams.init(GINConfig(hidden_dim=4), 84)
    head = TaskHeadParams.init(13, 4, 85)
    path = tmp_path / "m.npz"
    save_models(path, gin, head)
    comps, meta = load_checkpoint(path)
    # tamper: bump the version and rewrite
    import io

    meta["format_version"] = 99
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **arrays)
    path.write_bytes(buf.getvalue())
    with pytest.raises(ConfigError, match="format"):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["U32", np.complex128, np.int64, np.float32])
def test_checkpoint_rejects_arrays_that_are_not_float64(workflow, tmp_path, capsys, dtype):
    _, _, data, _, tuned = workflow
    comps, meta = load_checkpoint(tuned)
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    victim = next(k for k in arrays if k.startswith("prompt/"))
    arrays[victim] = arrays[victim].astype(dtype)
    path = tmp_path / "m.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(ConfigError, match=f"{victim} is .*, not float64"):
        load_checkpoint(path)
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(path), "--out", str(tmp_path / "pred")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_rejects_arrays_that_are_not_finite(workflow, tmp_path, capsys, value):
    _, _, data, _, tuned = workflow
    comps, meta = load_checkpoint(tuned)
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    victim = next(k for k in arrays if k.startswith("prompt/"))
    arrays[victim].flat[-1] = value
    path = tmp_path / "m.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(ConfigError, match=f"{victim} holds a NaN or infinite value"):
        load_checkpoint(path)
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(path), "--out", str(tmp_path / "pred")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "pred.report.json").exists()


@pytest.mark.parametrize("settings, message", [
    ({"heads": 0, "multi_head": True}, "heads must be positive"),
    ({"heads": -1, "multi_head": True}, "heads must be positive"),
    ({"multi_head": "yes"}, "multi_head: expected bool"),
    ({"dropout": float("nan")}, "dropout must lie in"),
    ({"dropout": 5.0}, "dropout must lie in"),
    ({"heads": 2.5}, "heads: expected int"),
], ids=["heads-0", "heads-minus-1", "multi-head-string", "dropout-nan", "dropout-5",
        "heads-float"])
def test_checkpoint_rejects_prompt_settings_tuning_rejects(workflow, tmp_path, capsys,
                                                          settings, message):
    _, _, data, _, tuned = workflow
    comps, meta = load_checkpoint(tuned)
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    meta["arch"]["prompts"]["prompt"].update(settings)
    path = tmp_path / "m.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(ConfigError, match=message):
        load_models(path)
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(path), "--out", str(tmp_path / "pred")])
    assert code == 2
    assert _one_json_line(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "pred.report.json").exists()


@pytest.mark.parametrize("key, value, error", [
    ("num_layers", True, ConfigError),
    ("dropout", False, ConfigError),
    ("hidden_dim", 10**12, ConfigError),
    ("num_layers", 10**12, ConfigError),
    ("head_hidden", 10**12, ShapeMismatchError),
    ("mlp_hidden", 10**12, ConfigError),
    ("heads", 10**12, ConfigError),
], ids=["layers-bool", "dropout-bool", "hidden-huge", "layers-huge", "head-hidden-huge",
        "prompt-hidden-huge", "heads-huge"])
def test_checkpoint_architecture_is_checked_like_a_config(workflow, tmp_path, capsys,
                                                          key, value, error):
    """Typed as a run config types it, and compared with the stored shapes
    before anything is allocated at the sizes it names."""
    _, _, data, _, tuned = workflow
    comps, meta = load_checkpoint(tuned)
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    arch = meta["arch"]
    if key == "head_hidden":
        arch[key] = value
    elif key in arch["gin_config"]:
        arch["gin_config"][key] = value
    else:
        arch["prompts"]["prompt"].update({key: value, "multi_head": True})
    path = tmp_path / "m.npz"
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(error):
        load_models(path)
    prefix = tmp_path / "pred"
    code = cli.main(["infer", "--multimers", str(data / "multimers.jsonl"),
                     "--ckpt", str(path), "--out", str(prefix)])
    assert code == 2
    assert _one_json_line(capsys.readouterr().err)["error"] == error.__name__
    assert _infer_outputs(prefix) == []


def test_checkpoint_missing_parameter_rejected(tmp_path):
    gin = GINParams.init(GINConfig(hidden_dim=4), 86)
    head = TaskHeadParams.init(13, 4, 87)
    path = tmp_path / "m.npz"
    save_models(path, gin, head)
    comps, meta = load_checkpoint(path)
    victim = next(iter(comps["head"]))
    del comps["head"][victim]
    arrays = {f"{t}/{n}": a for t, named in comps.items() for n, a in named.items()}
    import io

    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **arrays)
    path.write_bytes(buf.getvalue())
    with pytest.raises(ConfigError, match="missing"):
        load_models(path)


# ---------------------------------------------------------------------------
# chain files


def _long_seq(n=60):
    return ("ACDEFGHIKLMNPQRSTVWY" * 3)[:n]


def test_chain_file_roundtrip_full_precision(tmp_path):
    rng = np.random.default_rng(88)
    chains = [
        ChainStructure("A", _long_seq(), rng.normal(scale=30.0, size=(60, 3))),
        ChainStructure("B", _long_seq(55), rng.normal(scale=30.0, size=(55, 3))),
    ]
    path = tmp_path / "chains.txt"
    write_chain_file(path, chains)
    back = parse_chain_coords(path)
    assert [c.chain_id for c in back] == ["A", "B"]
    for orig, parsed in zip(chains, back):
        assert parsed.sequence == orig.sequence
        assert np.array_equal(parsed.coords, orig.coords)  # bit-exact via %.17g


def test_legacy_atom_records_parse(tmp_path):
    lines = ["HEADER    TEST"]
    for chain, count in (("A", 52), ("B", 3)):
        for i in range(count):
            x, y, z = 1.0 * i, 2.0, 3.0
            lines.append(
                f"ATOM  {i+1:>5}  CA  ALA {chain}{i+1:>4}    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
            )
    # altloc B and a duplicate resseq must be ignored
    lines.append(
        "ATOM   9999  CA BGLY A   1    " + f"{9.0:8.3f}{9.0:8.3f}{9.0:8.3f}"
        + "  1.00  0.00           C"
    )
    lines.append("ENDMDL")
    lines.append("ATOM   9998  CA  ALA C   1    " +
                 f"{5.0:8.3f}{5.0:8.3f}{5.0:8.3f}" + "  1.00  0.00           C")
    path = tmp_path / "legacy.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(ShortChainWarning):
        chains = parse_chain_coords(path)
    # chain B is short and dropped; chain C sits after ENDMDL and is ignored
    assert [c.chain_id for c in chains] == ["A"]
    assert chains[0].sequence == "A" * 52
    assert chains[0].coords[0].tolist() == [0.0, 2.0, 3.0]


def test_malformed_chain_files_raise_with_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("#stepasm-chains 1\n>A\nACD\n1 2\n")
    with pytest.raises(MalformedRecordError, match="line 4"):
        parse_chain_coords(bad)
    bad.write_text("#stepasm-chains 1\n>A\nACD\n1 2 nope\n")
    with pytest.raises(MalformedRecordError, match="bad coordinate"):
        parse_chain_coords(bad)
    bad.write_text("garbage first line\n")
    with pytest.raises(MalformedRecordError, match="unrecognized format"):
        parse_chain_coords(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(EmptyFileError):
        parse_chain_coords(empty)


def test_chain_file_that_is_not_utf8_reports_its_line(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_chain_file(good, [ChainStructure("A", _long_seq(), np.zeros((60, 3)))])
    lines = good.read_bytes().split(b"\n")
    lines[1] = b">\xff"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\r\n".join(lines))
    with pytest.raises(MalformedRecordError, match="^line 2: not UTF-8"):
        parse_chain_coords(bad)
    assert cli.main(["eval", "--pred", str(bad), "--gt", str(good)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "MalformedRecordError"


def test_chain_file_of_short_chains_only_is_empty(tmp_path, capsys):
    short = tmp_path / "short.txt"
    write_chain_file(short, [ChainStructure("A", "ACD", np.eye(3))])
    with pytest.warns(ShortChainWarning), pytest.raises(EmptyFileError, match="fewer than 50"):
        parse_chain_coords(short)
    with pytest.warns(ShortChainWarning):
        assert cli.main(["eval", "--pred", str(short), "--gt", str(short)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyFileError"


@pytest.mark.parametrize("value", ["nan", "-inf", "1e200", "-1000000.5"])
def test_chain_file_rejects_coordinates_eval_cannot_square(tmp_path, value):
    path = tmp_path / "far.txt"
    write_chain_file(path, [ChainStructure("A", _long_seq(), np.zeros((60, 3)))])
    lines = path.read_text().split("\n")
    lines[5] = f"0 {value} 0"
    path.write_text("\n".join(lines))
    with pytest.raises(MalformedRecordError, match="^line 6: coordinate not finite or beyond"):
        parse_chain_coords(path)


def test_residue_count_mismatch_rejected(tmp_path):
    bad = tmp_path / "count.txt"
    bad.write_text("#stepasm-chains 1\n>A\nAC\n1 2 3\n")
    with pytest.raises(MalformedRecordError, match="2 residues but 1"):
        parse_chain_coords(bad)
