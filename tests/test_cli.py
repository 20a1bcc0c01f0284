"""Command-line interface behavior and exit codes."""

import hashlib
import json
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from splitseg import cli, dataio, experiments


def write_config(tmp_path, **overrides):
    raw = {
        "model": {
            "input_size": 128, "base_channels": 8, "feature_channels": 16,
            "num_classes": 4, "ppm_bins": [1, 2], "seed": 11,
        },
        "channel": {"modulations": ["qpsk"], "snr_db": [10.0, 20.0]},
        "pipelines": ["split"],
        "num_images": 2,
        "master_seed": 555,
        "dataset": "synthetic",
        "reference_mode": "noiseless_output",
        "quant_bits": 8,
        "fps": 1.0,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_report_prints_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli.main(["report", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rate"]["bits_per_image"]["split"] < payload["rate"]["bits_per_image"]["traditional"]
    assert payload["compute"]["tx_macs"]["split"] < payload["compute"]["tx_macs"]["full_tx"]


def test_report_writes_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "reports"
    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "rate_report.json").exists()
    assert (out / "compute_report.json").exists()
    assert (out / "bits_per_image.svg").exists()
    assert (out / "tx_macs.svg").exists()


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "config.json"
    cfg.write_text(block)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    model = json.loads(block)["model"]
    size = model.pop("input_size")
    report = json.loads(capsys.readouterr().out)
    assert report["rate"]["config"] == {"input_height": size, "input_width": size, **model}


def test_missing_config_exit_code(tmp_path, capsys):
    code = cli.main(["report", "--config", str(tmp_path / "absent.json")])
    assert code == cli.EXIT_MISSING_FILE
    assert "absent.json" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {}, "channel": {}, "wat": 1}))
    code = cli.main(["report", "--config", str(cfg)])
    assert code == cli.EXIT_BAD_CONFIG
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}", b"[" * 100_000],
                         ids=["invalid", "not_utf8", "nested_too_deep"])
def test_undecodable_config_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}: not valid JSON" in err and "Traceback" not in err


def test_unknown_flag_exit_code(tmp_path, capsys):
    assert cli.main(["report", "--nope"]) == cli.EXIT_USAGE
    codes = {cli.EXIT_USAGE, cli.EXIT_MISSING_FILE, cli.EXIT_BAD_CONFIG}
    assert len(codes) == 3  # the three failure kinds stay distinguishable


def test_sweep_deterministic_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    a = (out1 / "sweep_qpsk.csv").read_bytes()
    b = (out2 / "sweep_qpsk.csv").read_bytes()
    assert a == b
    meta = json.loads((out1 / "sweep_qpsk.meta.json").read_text())
    assert meta["snr_axis"] == "es_n0_db"
    assert meta["spec"]["num_images"] == 2


def test_sweep_seed_override_changes_noise(tmp_path, capsys):
    cfg = write_config(tmp_path, channel={"modulations": ["16qam"], "snr_db": [6.0]})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    a = (out1 / "sweep_16qam_ext.csv").read_text()
    b = (out2 / "sweep_16qam_ext.csv").read_text()
    assert a != b


def test_seed_flag_is_for_sweep_only(tmp_path, capsys):
    # the reports never read the master seed, so report takes no --seed
    cfg = write_config(tmp_path)
    assert cli.main(["report", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_USAGE
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == cli.EXIT_OK
    meta = json.loads((out / "sweep_qpsk.meta.json").read_text())
    assert meta["spec"]["master_seed"] == 1  # the config says 555


def test_plot_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    svg = tmp_path / "curves.svg"
    assert cli.main(["plot", str(out / "sweep_qpsk.csv"), "-o", str(svg)]) == 0
    assert svg.exists()
    assert b"polyline" in svg.read_bytes()


def test_plot_names_an_undecodable_csv(tmp_path, capsys):
    csv = tmp_path / "sweep_qpsk.csv"
    csv.write_bytes(b"\xff\xfe")
    assert cli.main(["plot", str(csv), "-o", str(tmp_path / "curves.svg")]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{csv}: not UTF-8 text" in err and "Traceback" not in err


def test_gen_data_writes_pairs(tmp_path, capsys):
    out = tmp_path / "data"
    code = cli.main([
        "gen-data", "--out", str(out), "--num", "3", "--classes", "4", "--size", "64",
    ])
    assert code == 0
    assert len(list(out.glob("*.ppm"))) == 3
    assert len(list(out.glob("*.pgm"))) == 3


@pytest.mark.parametrize("flag,value", [
    ("--num", "0"), ("--num", "-1"), ("--size", "1"), ("--size", "8"),
    ("--classes", "1"), ("--classes", "300"), ("--seed", "-1"), ("--num", "two"),
])
def test_gen_data_bad_argument_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    argv = ["gen-data", "--out", str(out), "--num", "2", "--size", "16", flag, value]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_accepts_the_smallest_and_largest_values(tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["gen-data", "--out", str(out), "--num", "1", "--size", "9", "--classes", "256", "--seed", "0"]
    assert cli.main(argv) == 0
    [(raster, seg)] = dataio.load_dataset_dir(out)
    assert raster.shape == (9, 9, 3) and seg.labels.max() < 256


@pytest.mark.parametrize("command,written", [
    ("gen-data", ["*.ppm"]),
    ("report", ["rate_report.json", "compute_report.json", "bits_per_image.svg", "tx_macs.svg"]),
    ("sweep", ["sweep_qpsk.csv", "sweep_qpsk_ext.csv", "sweep_qpsk.meta.json"]),
], ids=["gen-data", "report", "sweep"])
def test_out_dir_env_override(tmp_path, capsys, monkeypatch, command, written):
    # the variable overrides every --out
    target = tmp_path / "env_target"
    monkeypatch.setenv("SPLITSEG_OUT_DIR", str(target))
    if command == "gen-data":
        args = ["--num", "1", "--size", "64"]
    else:
        args = ["--config", str(write_config(tmp_path, num_images=1, channel={"modulations": ["qpsk"], "snr_db": [10.0]}))]
    code = cli.main([command, "--out", str(tmp_path / "ignored"), *args])
    assert code == 0
    assert all(len(list(target.glob(pattern))) == 1 for pattern in written)
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("section", ["model", "channel"])
def test_non_object_section_exit_code(tmp_path, capsys, section):
    cfg = write_config(tmp_path, **{section: 3})
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    assert repr(section) in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("channel", "snr_db", "10"), ("channel", "modulations", "qpsk"),
    (None, "pipelines", "split"), ("model", "ppm_bins", "12"),
])
def test_string_in_place_of_a_list_rejected(tmp_path, capsys, section, key, value):
    raw = json.loads(write_config(tmp_path).read_text())
    (raw[section] if section else raw)[key] = value
    cfg = write_config(tmp_path, **raw)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    assert f"{key!r} must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"num_images": "many"},
    {"model": {"num_classes": 1}},
    {"model": {"base_channels": "wide"}},
])
def test_invalid_config_message_has_one_prefix(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert err.count("invalid config") == 1


@pytest.mark.parametrize("section,key,value", [
    (None, "master_seed", -1), (None, "master_seed", 2 ** 64), ("model", "seed", 2 ** 64),
])
def test_out_of_range_seed_is_named(tmp_path, capsys, section, key, value):
    raw = json.loads(write_config(tmp_path).read_text())
    (raw[section] if section else raw)[key] = value
    cfg = write_config(tmp_path, **raw)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"seed must be a 64-bit unsigned integer, got {value}" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    cfg = write_config(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", workers]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--seed", str(2 ** 64)), ("--seed", "1.5"), ("--workers", "two"),
])
def test_sweep_bad_argument_is_a_usage_error(tmp_path, capsys, flag, value):
    # a seed that no config could hold is the flag's fault, not the config's
    cfg = write_config(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), flag, value]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_takes_the_largest_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", str(2 ** 64 - 1)]) == cli.EXIT_OK
    assert json.loads((out / "sweep_qpsk.meta.json").read_text())["spec"]["master_seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("exc", [
    RuntimeError("bit accounting mismatch"), BrokenProcessPool("worker died"),
    MemoryError("Unable to allocate 96.0 GiB for an array"),
])
def test_sweep_runtime_failure_exit_code(tmp_path, capsys, monkeypatch, exc):
    def failing_sweep(spec, workers=1):
        raise exc

    monkeypatch.setattr(experiments, "sweep", failing_sweep)
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {exc}\n"


def write_raw_config(tmp_path, section, key, literal):
    """A valid config with one value replaced by a raw JSON literal such as 1e999."""
    raw = json.loads(write_config(tmp_path).read_text())
    (raw[section] if section else raw)[key] = "@@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw).replace('"@@"', literal))
    return path


@pytest.mark.parametrize("section,key,literal", [
    (None, "num_images", '"many"'), (None, "master_seed", "1e999"), (None, "fps", '"fast"'),
    ("model", "input_size", "1e999"), ("model", "ppm_bins", "[1e999]"), ("model", "seed", "NaN"),
    ("channel", "snr_db", '[10, "loud"]'),
    # a float is not truncated to an int, and no bool or string passes as a number
    ("model", "input_size", "256.9"), (None, "num_images", "1.5"), ("model", "seed", "1.5"),
    (None, "num_images", "true"), (None, "num_images", '"7"'), ("model", "ppm_bins", "[1.7, 2.2]"),
    ("channel", "snr_db", '[true, "20"]'), (None, "master_seed", "555.0"), (None, "quant_bits", "8.0"),
    (None, "fps", "true"), (None, "dataset", "5"), (None, "reference_mode", "5"),
])
def test_uncoercible_value_names_its_key(tmp_path, capsys, section, key, literal):
    cfg = write_raw_config(tmp_path, section, key, literal)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert repr(key) in err


@pytest.mark.parametrize("command", ["report", "sweep"])
@pytest.mark.parametrize("section,key,literal,field", [
    ("channel", "snr_db", "[NaN]", "snr_db"),
    (None, "fps", "1e999", "frames_per_second"),
])
def test_non_finite_value_rejected(tmp_path, capsys, command, section, key, literal, field):
    cfg = write_raw_config(tmp_path, section, key, literal)
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "o")] if command == "sweep" else [])
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("keys", [["input_height"], ["input_width"], ["input_height", "input_width"]])
def test_input_size_with_height_or_width_rejected(tmp_path, capsys, keys):
    # merged, {"input_size": 128, "input_height": 256} would give a 256x128 model
    raw = json.loads(write_config(tmp_path).read_text())
    raw["model"].update({k: 256 for k in keys})
    cfg = write_config(tmp_path, **raw)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert all(repr(k) in err for k in ["input_size", *keys])


def test_report_too_large_to_count_is_a_config_error(tmp_path, capsys):
    cfg = write_raw_config(tmp_path, "model", "input_size", str(64 * 2 ** 1100))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_BAD_CONFIG
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "sweep"])
@pytest.mark.parametrize("snr_db", [[-4000.0], [-3083.0, 10.0]])
def test_snr_below_float64_noise_power_rejected(tmp_path, capsys, command, snr_db):
    # 10**(-snr_db/10) overflows float64 below about -3082.5 dB
    cfg = write_config(tmp_path, channel={"modulations": ["qpsk"], "snr_db": snr_db})
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "o")] if command == "sweep" else [])
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    assert "snr_db must be at least" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["report", "sweep"])
@pytest.mark.parametrize("section,key,value", [
    ("channel", "modulations", ["qpsk", "16qam", "qpsk"]),
    (None, "pipelines", ["split", "split"]),
])
def test_repeated_list_entry_rejected(tmp_path, capsys, command, section, key, value):
    # a repeated modulation would write its sweep CSV twice; a repeated pipeline would run twice
    raw = json.loads(write_config(tmp_path).read_text())
    (raw[section] if section else raw)[key] = value
    cfg = write_config(tmp_path, **raw)
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "o")] if command == "sweep" else [])
    assert cli.main(argv) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert f"{key} must not repeat entries" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,header", [
    ("img_0000.ppm", b"P6\n99999999999 99999999999\n255\n"),
    ("img_0000.ppm", b"P6\n1000000 1000000\n255\n"),
    ("img_0001.pgm", b"P5\n99999999999 99999999999\n255\n"),
])
def test_huge_image_header_is_a_dataset_error(tmp_path, capsys, name, header):
    data = tmp_path / "data"
    dataio.write_dataset(data, dataio.generate_synthetic(2, 4, 128, 128, seed=3))
    (data / name).write_bytes(header)
    cfg = write_config(tmp_path, dataset=str(data))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: dataset load failed")
    assert name.replace("pgm", "ppm") in err and "Traceback" not in err


def test_dataset_that_is_a_file_is_a_dataset_error(tmp_path, capsys):
    data = tmp_path / "data.ppm"
    data.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    cfg = write_config(tmp_path, dataset=str(data))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: {data}: not a directory\n"


def test_dataset_that_does_not_exist_is_a_missing_file(tmp_path, capsys):
    data = tmp_path / "absent"
    cfg = write_config(tmp_path, dataset=str(data))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_MISSING_FILE
    assert capsys.readouterr().err == f"error: missing file: {data}\n"


def test_snr_at_the_float64_noise_power_limit_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, channel={"modulations": ["qpsk", "16qam"], "snr_db": [-3082.0, 10.0]})
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_OK


@pytest.mark.parametrize("command,files", [
    ("sweep", ["sweep_qpsk.csv", "sweep_qpsk_ext.csv", "sweep_qpsk.meta.json"]),
    ("report", ["rate_report.json", "compute_report.json", "bits_per_image.svg", "tx_macs.svg"]),
])
def test_failed_write_leaves_old_file_or_none(tmp_path, capsys, monkeypatch, fail_write_number, command, files):
    cfg = write_config(tmp_path)

    def run(out, fail_at=None):
        with monkeypatch.context() as m:
            if fail_at is not None:
                fail_write_number(m, fail_at)
            return cli.main([command, "--config", str(cfg), "--out", str(out)])

    assert run(tmp_path / "good") == cli.EXIT_OK
    good = {name: (tmp_path / "good" / name).read_bytes() for name in files}
    assert sorted(os.listdir(tmp_path / "good")) == sorted(files)
    for n, failing in enumerate(files):
        old = tmp_path / f"old{n}"
        old.mkdir()
        for name in files:
            (old / name).write_bytes(b"old\n")
        fresh = tmp_path / f"fresh{n}"
        assert run(old, fail_at=n) == cli.EXIT_RUNTIME
        assert run(fresh, fail_at=n) == cli.EXIT_RUNTIME
        assert "No space left" in capsys.readouterr().err
        # every file is whole: the old one, the new one, or (fresh) absent
        assert sorted(os.listdir(old)) == sorted(files)
        assert (old / failing).read_bytes() == b"old\n"
        assert all((old / name).read_bytes() in (b"old\n", good[name]) for name in files)
        assert sorted(os.listdir(fresh)) == sorted(files[:n])
        assert all((fresh / name).read_bytes() == good[name] for name in files[:n])


# sha256 of what `report --out` writes for write_config's spec and what `plot`
# writes for SWEEP_CSVS. A change that alters any of these bytes must update
# the digests on purpose.
REPORT_SHA256 = {
    "rate_report.json": "912200e0262aeb4f99530a5255fb1f4ba708d07827f668915eabc545756a028a",
    "compute_report.json": "96f389328174bd2822ae85b0bcc1543721bc3977d3301de83fc85ddd6cc75211",
    "bits_per_image.svg": "9ebffbfc5123375a675819eeadf3f6346570eb87c23032e7a8567de16b7b5aa0",
    "tx_macs.svg": "a8d030c33d2b6945533d20a64139c4b573ef9c9a3540c0af90f3bc09440e99f1",
}
PLOT_SHA256 = "057fda3d88e0ce200ec56373244f6d62c33a13ece8d20ce60781d9656674fc12"
SWEEP_CSVS = {
    "sweep_qpsk.csv": "snr,miou_f,miou_n,miou_s\n"
                      "5.0,0.25,nan,0.125\n10.0,0.5,0.0625,0.40625\n20.0,0.875,0.5,0.9\n",
    "sweep_16qam.csv": "snr,miou_f,miou_n,miou_s\n"
                       "5.0,0.1,nan,0.05\n10.0,0.3,nan,0.2\n20.0,0.7,nan,0.75\n",
}


def test_report_and_plot_golden_digests(tmp_path, capsys):
    out = tmp_path / "reports"
    assert cli.main(["report", "--config", str(write_config(tmp_path)), "--out", str(out)]) == cli.EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_SHA256}
    assert digests == REPORT_SHA256

    for name, text in SWEEP_CSVS.items():
        (tmp_path / name).write_text(text)
    svg = tmp_path / "curves.svg"
    argv = ["plot", *(str(tmp_path / name) for name in SWEEP_CSVS), "-o", str(svg)]
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == PLOT_SHA256
