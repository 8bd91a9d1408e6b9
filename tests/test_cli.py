import io
import json
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from giftnn import cli
from giftnn.cli import (
    ARCH_PRESETS,
    ConfigError,
    DEFAULT_CONFIG,
    Experiment,
    _deep_merge,
    _device_seed,
    code_hash,
    main,
    read_csv_body,
    resolve_config,
    write_csv,
    write_json,
)
from giftnn.data import DATA_DIR_ENV
from giftnn.gift import EvalReport, GiftTrace, estimate_direction
from giftnn.model import STREAM_ESTIMATE, Architecture, RngStream, load_params, point_blocks

from test_data import write_idx
from test_device import MIB, traced_peak


def fresh_config():
    return json.loads(json.dumps(DEFAULT_CONFIG))


TINY_SETS = [
    "arch.preset=linear_example",
    "data.kind=synthetic_linear",
    "data.n_train=256",
    "data.n_test=64",
    "data.v=[0.3,-0.4]",
    "train.epochs=5",
    "train.batch_size=64",
    "train.eps0=0.1",
    "train.decay_p=1.0",
    "train.tau=150",
    "gift.k1=32",
    "gift.k2=2",
    "gift.max_steps=3",
    "gift.est_k1=20",
    "gift.est_k2=5",
]


def tiny_argv(command, out, *extra):
    # seeds go in as a --set leaf, so an extra seeds=... setting can override them
    argv = [command, "--out", str(out), "--set", "seeds=[0,1]"]
    for item in TINY_SETS:
        argv += ["--set", item]
    for item in extra:
        argv += ["--set", item]
    return argv


def leaf_paths(tree, prefix=""):
    """(dotted path, default) of every config leaf."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def csv_body(path):
    with open(path) as f:
        lines = f.readlines()
    assert lines[0].startswith("# meta ")
    return "".join(lines[1:])


class TestConfigMachinery:
    def test_deep_merge_overrides_leaves_only(self):
        merged = _deep_merge(fresh_config(), {"train": {"epochs": 3}, "name": "x"})
        assert merged["train"]["epochs"] == 3
        assert merged["train"]["s0"] == DEFAULT_CONFIG["train"]["s0"]
        assert merged["name"] == "x"

    def test_deep_merge_unknown_key_names_path(self):
        with pytest.raises(ConfigError) as e:
            _deep_merge(fresh_config(), {"train": {"bogus": 1}})
        assert "train.bogus" in str(e.value)

    def test_set_parses_json_values(self):
        cfg = resolve_config(SimpleNamespace(set=[
            "train.epochs=3", "sweep.s0_grid=[0.1, 0.2]", "device.family=laplace_additive",
            "data.dir=null"]))
        assert cfg["train"]["epochs"] == 3
        assert cfg["sweep"]["s0_grid"] == [0.1, 0.2]
        assert cfg["device"]["family"] == "laplace_additive"  # non-JSON falls back to raw string
        assert cfg["data"]["dir"] is None

    def test_set_rejects_unknown_keys_and_leaves_used_as_sections(self, capsys):
        with pytest.raises(ConfigError, match="nope: unknown config key"):
            resolve_config(SimpleNamespace(set=["nope.x=1"]))
        with pytest.raises(ConfigError, match="train.nope: unknown config key"):
            resolve_config(SimpleNamespace(set=["train.nope=1"]))
        assert main(["check", "--set", "train.epochs.deep=1"]) == 1
        assert capsys.readouterr().err.startswith("config error: train.epochs: ")
        assert main(["check", "--set", "arch.activation=tanh"]) == 1  # every hidden layer is tanh; no leaf
        assert capsys.readouterr().err == "config error: arch.activation: unknown config key\n"
        # the fresh pair queries each point gift.k2 times, and the line search always steps along the unit direction
        for setting in ("gift.fresh_eval_k2=8", "gift.normalize_direction=true"):
            assert main(["check", "--set", setting]) == 1
            assert capsys.readouterr().err == f"config error: {setting.split('=')[0]}: unknown config key\n"

    def test_whole_section_set_merges_over_defaults(self, tmp_path):
        # a section-valued --set is merged like a config file holding it, not put in place
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 3}}))
        by_set = resolve_config(SimpleNamespace(set=['train={"epochs": 3}']))
        assert by_set == resolve_config(SimpleNamespace(config=str(path)))
        assert by_set["train"] == {**DEFAULT_CONFIG["train"], "epochs": 3}
        Experiment(by_set)

    def test_leaf_set_into_a_non_section_exits_1(self, tmp_path, capsys):
        # the file replaces the train section by 5; the --set then leaves a section lacking leaves
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": 5}))
        assert main(["check", "--config", str(path), "--set", "train.epochs=3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: train: "), err

    @pytest.mark.parametrize("content", [None, b'{"name": "\xff"}'], ids=["directory", "non_utf8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="config: cannot read"):
            resolve_config(SimpleNamespace(config=str(path)))
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: config: "), err

    def test_resolve_config_file_and_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 7}}))
        args = SimpleNamespace(config=str(path), set=["gift.eta=0.5"],
                               data_dir=None, out="outdir", seeds="0,2,5")
        cfg = resolve_config(args)
        assert cfg["train"]["epochs"] == 7
        assert cfg["gift"]["eta"] == 0.5
        assert cfg["out_dir"] == "outdir"
        assert cfg["seeds"] == [0, 2, 5]

    def test_resolve_config_error_paths(self, tmp_path):
        ns = lambda **kw: SimpleNamespace(config=None, set=None, data_dir=None,
                                          out=None, seeds=None, **{}) if not kw else SimpleNamespace(
            **{**dict(config=None, set=None, data_dir=None, out=None, seeds=None), **kw})
        with pytest.raises(ConfigError, match="file not found"):
            resolve_config(ns(config=str(tmp_path / "missing.json")))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            resolve_config(ns(config=str(bad)))
        top = tmp_path / "list.json"
        top.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            resolve_config(ns(config=str(top)))
        with pytest.raises(ConfigError, match="seeds"):
            Experiment(resolve_config(ns(seeds="a,b")))
        with pytest.raises(ConfigError, match="expected dotted.path=value"):
            resolve_config(ns(set=["train.epochs"]))

    @pytest.mark.parametrize("items", ["0, 2,5", "1e3", "1.0", "1_000", "1.5", "true", '"3"', "x", "1,1", ""])
    def test_seeds_flag_reads_its_items_as_set_reads_a_list(self, items):
        def seeds(args):
            try:
                return Experiment(resolve_config(args)).seeds
            except ConfigError as e:
                assert [m.split(":")[0] for m in e.errors] == ["seeds"]
                return "exit 1"

        by_flag = seeds(SimpleNamespace(seeds=items))
        assert by_flag == seeds(SimpleNamespace(set=[f"seeds=[{items}]"]))
        assert by_flag == {"0, 2,5": [0, 2, 5], "1e3": [1000], "1.0": [1]}.get(items, "exit 1")


class TestExperimentValidation:
    def test_default_config_is_valid(self):
        exp = Experiment(fresh_config())
        assert exp.arch.layer_dims == (16, 32, 16, 4)
        assert exp.seeds == [0, 1, 2, 3, 4]

    def test_layer_dims_override_beats_preset(self):
        cfg = fresh_config()
        cfg["arch"]["layer_dims"] = [2, 3, 1]
        assert Experiment(cfg).arch.layer_dims == (2, 3, 1)

    def test_collects_multiple_errors_with_field_paths(self):
        cfg = fresh_config()
        cfg["arch"]["preset"] = "bogus"
        cfg["train"]["epochs"] = 0
        cfg["gift"]["stop_rule"] = "sometimes"
        cfg["device"]["family"] = "psychic"
        cfg["seeds"] = []
        with pytest.raises(ConfigError) as e:
            Experiment(cfg)
        text = str(e.value)
        assert len(e.value.errors) >= 5
        for field in ("arch.preset", "train", "gift", "device", "seeds"):
            assert field in text

    def test_mnist_requires_data_dir(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        cfg = fresh_config()
        cfg["data"]["kind"] = "mnist"
        with pytest.raises(ConfigError, match="data.dir"):
            Experiment(cfg)

    def test_sweep_grid_levels_must_be_positive(self):
        for field, levels in (("st_grid", [0.1, 0.0]), ("s0_grid", ["a"]), ("st_grid", [0.1, "b"])):
            cfg = fresh_config()
            cfg["sweep"][field] = levels
            with pytest.raises(ConfigError, match=f"sweep.{field}"):
                Experiment(cfg)

    def test_datasets_sizes_and_disjointness(self):
        cfg = fresh_config()
        cfg["arch"]["preset"] = "linear_example"
        cfg["data"].update(kind="synthetic_linear", n_train=100, n_test=30, v=[0.3, -0.4])
        train_ds, test_ds = Experiment(cfg).datasets()
        assert len(train_ds) == 100 and len(test_ds) == 30
        assert train_ds.inputs.shape[1] == 2
        # pool slicing: no row appears in both splits
        joined = np.vstack([train_ds.inputs, test_ds.inputs])
        assert len(np.unique(joined, axis=0)) == 130

    def test_wide_datasets_stay_within_memory(self):
        # the 2,500-row shallow_mnist teacher pool (15 MiB of inputs), scaled in place and labelled by a noise-free
        # pass that reads the inputs themselves, keeps no trace and drops each hidden layer once the next is formed,
        # peaks at about 29.9 MiB; every layer allocated up front took it to 32.0 MiB, the pass's copy of the inputs
        # to 47.0 MiB, and a scaled copy of the inputs and a traced pass to 60.3 MiB
        cfg = fresh_config()
        cfg["arch"]["preset"] = "shallow_mnist"
        peak = traced_peak(Experiment(cfg).datasets)
        assert peak < 32.7 * MIB, f"peak traced allocation {peak / MIB:.1f} MiB"


class TestArtifacts:
    def test_write_read_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        rows = [{"a": np.float64(1.5), "b": np.int64(2)}, {"a": 0.25, "b": 7}]
        write_csv(path, ["a", "b"], rows, {"k": "v"})
        meta, back = read_csv_body(path)
        assert meta == {"k": "v"}
        assert [(float(r["a"]), int(r["b"])) for r in back] == [(1.5, 2), (0.25, 7)]
        assert "np.float64" not in open(path).read()

    def test_code_hash_is_short_stable_hex(self):
        h = code_hash()
        assert h == code_hash()
        assert len(h) == 12
        int(h, 16)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out" / "x.json"
        write_json(str(path), {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(str(path), {"a": 2, "b": object()})  # json.dump raises after writing "a"
        assert path.read_bytes() == before
        assert os.listdir(path.parent) == ["x.json"]

    def test_gift_row_holds_every_gift_field_in_order(self):
        # csv.DictWriter writes a key missing from a row as an empty cell and raises nothing, so a key
        # dropped from _gift_row would blank a gift_summary.csv or sweep_rows.csv column
        report = EvalReport(loss=0.5, loss_se=0.1, accuracy=0.75, accuracy_se=0.05, k1=4, k2=2, noise_slot=0)
        trace = GiftTrace(baseline=report, best=report, records=[], selected=(0, 0), w_f=None, improvement=0.0,
                          steps_taken=1, queries=24, stop_reason="either_worse", direction_norm=1.0)
        row = cli._gift_row("gaussian_additive", 0.2, 0.3, 0, trace, report, report)
        assert list(row) == cli.GIFT_FIELDS

    def test_device_seed_separates_family_level_and_sign(self):
        a = _device_seed(0, "gaussian_additive", 0.3)
        assert a == _device_seed(0, "gaussian_additive", 0.3)
        assert a != _device_seed(1, "gaussian_additive", 0.3)
        assert a != _device_seed(0, "laplace_additive", 0.3)
        assert a != _device_seed(0, "gaussian_additive", -0.3)


class TestExitCodes:
    def test_validation_errors_exit_1(self, tmp_path, capsys):
        assert main(tiny_argv("train", tmp_path / "o", "train.epochs=0")) == 1
        assert "config error" in capsys.readouterr().err

    def test_argparse_errors_exit_1(self, capsys):
        assert main(["bogus-subcommand"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        argv = tiny_argv("gift", tmp_path / "o") + ["--checkpoint", str(tmp_path / "nowhere")]
        assert main(argv) == 1
        assert "missing params for seed" in capsys.readouterr().err

    def test_data_dir_flag_into_a_non_section_exits_1(self, tmp_path, capsys):
        # --data-dir merges as its --set spelling does: into the file's data 5 it leaves a section lacking leaves
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": 5}))
        for flags in (["--data-dir", str(tmp_path)], ["--set", f"data.dir={tmp_path}"]):
            assert main(["train", "--config", str(path), *flags]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: data: "), err

    @pytest.mark.parametrize("setting, field", [
        ("data.n_train=abc", "data.n_train"),
        ('sweep.workers="abc"', "sweep.workers"),
        ("sweep.workers=0", "sweep.workers"),
        ('seeds=["x"]', "seeds"),
        ("gift.eta=Infinity", "gift.eta"),
        ('data.sigma_x="x"', "data.sigma_x"),
        ('data.seed="x"', "data.seed"),
        ("sweep.families=5", "sweep.families"),
        ('sweep.families="laplace"', "sweep.families"),
        ("sweep.families=[]", "sweep.families"),
        ('sweep.families=["laplace","laplace"]', "sweep.families"),
        ("sweep.s0_grid=[0.1,0.1]", "sweep.s0_grid"),
        ("gift.est_k1=1.5", "gift.est_k1"),
        ("data.n_train=50.7", "data.n_train"),
        ("sweep.workers=1.5", "sweep.workers"),
        ("train.epochs=2.5", "train.epochs"),
        ("train.batch_size=1.5", "train.batch_size"),
        ("gift.k1=1.5", "gift.k1"),
        ("gift.k2=2.5", "gift.k2"),
        ("gift.max_steps=1.5", "gift.max_steps"),
        ('data.v="x"', "data.v"),
        ("data.v=[0.3]", "data.v"),
        ("data.v=[true,0.3]", "data.v"),
        ("seeds=[1.5]", "seeds"),
        ("seeds=[true]", "seeds"),
        ('seeds=["3"]', "seeds"),
        ("seeds=[1,1]", "seeds"),
        ("data.seed=1.5", "data.seed"),
        ("data.seed=true", "data.seed"),
        ('data.seed="7"', "data.seed"),
        ("train.s0=true", "train.s0"),
        ("device.s_t=true", "device.s_t"),
        ("gift.eta=true", "gift.eta"),
        ("train.eps0=true", "train.eps0"),
        ("train.decay_p=true", "train.decay_p"),
        ("train.tau=true", "train.tau"),
        ("arch.layer_dims=[2,1.7]", "arch.layer_dims"),
        ("arch.layer_dims=[2,true]", "arch.layer_dims"),
        ('arch.layer_dims=["2","1"]', "arch.layer_dims"),
        ("sweep.s0_grid=[true]", "sweep.s0_grid"),
        ('sweep.st_grid=["0.2"]', "sweep.st_grid"),
        ("data.sigma_x=true", "data.sigma_x"),
        ('data.sigma_x="2"', "data.sigma_x"),
        ('train.projection={"w_min":true,"w_max":2,"b_min":-1,"b_max":1}', "train.projection"),
        ("arch.activation=5", "arch.activation"),
        ("gift.stop_rule=5", "gift.stop_rule"),
        ("device.family=5", "device.family"),
        ('train.eps0="x"', "train.eps0"),
        ("train=5", "train"),
    ])
    def test_count_fields_are_validated(self, tmp_path, capsys, setting, field):
        assert main(tiny_argv("gift", tmp_path / "o", setting)) == 1
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err
        assert err.count("config error:") == 1

    @pytest.mark.parametrize("path, default", [pytest.param(p, d, id=p) for p, d in leaf_paths(DEFAULT_CONFIG)])
    def test_every_leaf_rejects_a_value_of_another_type(self, tmp_path, capsys, path, default):
        # no string leaf takes a number, and no leaf with a null default takes one either
        bad = 5 if default is None or isinstance(default, str) else "x"
        argv = ["gift", "--set", f"{path}={json.dumps(bad)}"]
        if path != "out_dir":  # --out would override the leaf under test
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 1
        assert f"config error: {path}:" in err

    def test_checkpoint_architecture_mismatch_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_argv("train", out)) == 0
        argv = tiny_argv("gift", out, "arch.layer_dims=[2,3,1]") + ["--checkpoint", str(out / "train")]
        assert main(argv) == 1
        assert "checkpoint: params architecture" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gift", "eval"])
    def test_mnist_layer_dims_must_fit_the_digits(self, tmp_path, capsys, command):
        # validation runs before any IDX file is read, so an empty data.dir is enough
        mnist = ["data.kind=mnist", f"data.dir={json.dumps(str(tmp_path))}"]
        assert main(tiny_argv(command, tmp_path / "o", *mnist, "arch.layer_dims=[784,8,1]")) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 1
        assert "config error: arch.layer_dims: kind 'mnist' needs 784 inputs and 10 outputs" in err
        cfg = fresh_config()
        cfg["data"].update(kind="mnist", dir=str(tmp_path))
        cfg["arch"]["layer_dims"] = [784, 8, 10]
        assert Experiment(cfg).arch.layer_dims == (784, 8, 10)

    @pytest.mark.parametrize("command", ["train", "gift", "eval", "sweep"])
    @pytest.mark.parametrize("leaf, n", [("n_train", 100), ("n_test", 30), ("dir", "truncated"),
                                         ("dir", "truncated_gz"), ("dir", "directory"), ("dir", "label_10"),
                                         ("dir", "negative_count")])
    def test_mnist_sizes_must_fit_the_idx_splits(self, tmp_path, capsys, command, leaf, n):
        # 50 training and 20 test digits: a larger subset, or a training images or labels file that cannot
        # be read (n says how it is spoilt), is one config error naming its leaf, not a runtime one, and
        # not a sweep that exits 0 with every task failed
        gen = RngStream(0, 1).generator(0)
        images, labels = gen.integers(0, 256, (50, 784)), gen.integers(0, 10, 50)
        if n == "label_10":
            labels[7] = 10
        ipath, lpath = write_idx(tmp_path, images, labels, n == "truncated_gz")
        write_idx(tmp_path, gen.integers(0, 256, (20, 784)), gen.integers(0, 10, 20), False,
                  "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
        blob = open(ipath, "rb").read()
        if n in ("truncated", "truncated_gz"):
            open(ipath, "wb").write(blob[:len(blob) // 2])
        elif n == "negative_count":
            open(ipath, "wb").write(blob[:4] + struct.pack(">i", -1) + blob[8:])
        elif n == "directory":
            os.remove(ipath)
            os.mkdir(ipath)
        sizes = {"n_train": 40, "n_test": 10, **({} if leaf == "dir" else {leaf: n})}
        argv = tiny_argv(command, tmp_path / "o", "data.kind=mnist", f"data.dir={json.dumps(str(tmp_path))}",
                         "arch.layer_dims=[784,8,10]", *(f"data.{k}={v}" for k, v in sizes.items()))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and "runtime error" not in err
        assert "config error: data." + {
            "n_train": "n_train: 100 rows requested, the IDX split holds 50",
            "n_test": "n_test: 30 rows requested, the IDX split holds 20",
            "truncated": f"dir: {ipath}: truncated at byte ",
            "truncated_gz": f"dir: {ipath}: cannot decompress: ",
            "directory": f"dir: [Errno 21] Is a directory: {ipath!r}",
            "label_10": f"dir: {lpath}: label 10 out of range for 10 classes",
            "negative_count": f"dir: {ipath}: negative image count -1",
        }[leaf if leaf != "dir" else n] in err

    @pytest.mark.parametrize("command", ["gift", "eval"])
    @pytest.mark.parametrize("case", ["truncated", "not_npz", "directory", "other_activation"])
    def test_unreadable_checkpoint_exits_1(self, tmp_path, capsys, command, case):
        ck = tmp_path / "ck" / "seed_0"
        ck.mkdir(parents=True)
        path = ck / "params.npz"
        if case == "truncated":  # half of a real archive: the zip directory at its end is cut off
            buf = io.BytesIO()
            np.savez(buf, format_version=np.array(1), W1=np.zeros((1, 2)))
            path.write_bytes(buf.getvalue()[:len(buf.getvalue()) // 2])
        elif case == "not_npz":
            path.write_bytes(b"not an npz archive")
        elif case == "other_activation":  # a whole version-1 archive for the config's dims, but not tanh
            np.savez(path, format_version=np.array(1), layer_dims=np.array([2, 1]), activation=np.array("relu"),
                     W1=np.zeros((1, 2)), b1=np.zeros(1))
        else:
            path.mkdir()
        argv = tiny_argv(command, tmp_path / "o") + ["--checkpoint", str(tmp_path / "ck"), "--seeds", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and "runtime error" not in err
        assert f"config error: checkpoint: cannot read {path}: " in err
        assert "pickle" not in err
        assert ("params activation 'relu'" in err) == (case == "other_activation")

    @pytest.mark.parametrize("config, setting, field", [
        ({"out_dir": 5}, None, "out_dir"),
        (None, "train.epochs=abc", "train.epochs"),
    ])
    def test_check_validates_its_config(self, tmp_path, capsys, config, setting, field):
        argv = ["check"]
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        if setting is not None:
            argv += ["--set", setting]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 1
        assert f"config error: {field}:" in err

    def test_check_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_gaussian_product_cases", lambda *a, **k: 1.0)
        monkeypatch.setattr(cli, "check_hierarchical_sampler",
                            lambda *a, **k: {"all_within_4se": True, "mean_abs_error": 0.0, "se_pred": 0.0})
        monkeypatch.setattr(cli, "gradient_fd_check", lambda *a, **k: 0.0)
        assert main(["check", "--out", str(tmp_path / "o")]) == 3
        out = capsys.readouterr()
        assert "check gaussian_product_derivative: FAIL" in out.out
        assert "check failure" in out.err

    def test_check_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["check", "--out", str(out)]) == 0
        payload = json.loads((out / "check" / "checks.json").read_text())
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 4
        capsys.readouterr()

    def test_check_writes_under_an_out_dir_given_by_set(self, tmp_path, capsys):
        # --set out_dir=DIR names the leaf --out overrides, so the report lands in the same place
        out = tmp_path / "o"
        assert main(["check", "--set", f"out_dir={out}"]) == 0
        assert json.loads((out / "check" / "checks.json").read_text())["all_passed"] is True
        capsys.readouterr()


class TestTrainGiftEval:
    def test_train_artifacts_and_loss_decrease(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_argv("train", out)) == 0
        capsys.readouterr()
        for seed in (0, 1):
            seed_dir = out / "train" / f"seed_{seed}"
            assert (seed_dir / "params.npz").exists()
            meta, rows = read_csv_body(seed_dir / "train_log.csv")
            assert meta["config"]["train"]["epochs"] == 5
            assert len(rows) == 5 * (256 // 64)
            ck = json.loads((seed_dir / "checkpoint.json").read_text())
            assert ck["smoothed_final"] < ck["smoothed_initial"]

    def test_train_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(tiny_argv("train", a)) == 0
        assert main(tiny_argv("train", b)) == 0
        capsys.readouterr()
        pa = a / "train" / "seed_0"
        pb = b / "train" / "seed_0"
        assert (pa / "params.npz").read_bytes() == (pb / "params.npz").read_bytes()
        assert csv_body(pa / "train_log.csv") == csv_body(pb / "train_log.csv")
        ja = json.loads((pa / "checkpoint.json").read_text())
        jb = json.loads((pb / "checkpoint.json").read_text())
        ja.pop("meta"), jb.pop("meta")
        assert ja == jb

    def test_gift_from_checkpoint_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_argv("train", out)) == 0
        argv = tiny_argv("gift", out) + ["--checkpoint", str(out / "train")]
        assert main(argv) == 0
        capsys.readouterr()
        meta, rows = read_csv_body(out / "gift" / "gift_summary.csv")
        assert [int(r["seed"]) for r in rows] == [0, 1]
        for r in rows:
            assert float(r["loss_improvement"]) >= 0.0
            assert float(r["post_loss"]) == pytest.approx(
                float(r["baseline_loss"]) - float(r["loss_improvement"]))
            assert int(r["device_queries"]) == (1 + 2 * int(r["gift_steps"])) * 32 * 2
            assert r["stop_reason"] in ("either_worse", "both_worse", "max_steps")
        trace = json.loads((out / "gift" / "seed_0" / "gift_trace.json").read_text())
        assert trace["improvement"] >= 0.0
        assert len(trace["candidates"]) == 2 * trace["steps_taken"]
        assert (out / "gift" / "seed_0" / "params_final.npz").exists()

    def test_gift_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(tiny_argv("gift", a)) == 0
        assert main(tiny_argv("gift", b)) == 0
        capsys.readouterr()
        assert csv_body(a / "gift" / "gift_summary.csv") == csv_body(b / "gift" / "gift_summary.csv")

    def test_gift_summary_is_the_one_cell_sweep(self, tmp_path, capsys):
        # gift runs the sweep task's chain on one cell: its rows are the sweep's, byte for byte
        assert main(tiny_argv("gift", tmp_path / "g", "device.family=laplace", "train.s0=0.1",
                              "device.s_t=0.3")) == 0
        assert main(tiny_argv("sweep", tmp_path / "s", 'sweep.families=["laplace"]', "sweep.s0_grid=[0.1]",
                              "sweep.st_grid=[0.3]")) == 0
        capsys.readouterr()
        body = csv_body(tmp_path / "g" / "gift" / "gift_summary.csv")
        assert body.count("\nlaplace,0.1,0.3,") == 2  # one row per seed
        assert body == csv_body(tmp_path / "s" / "sweep" / "sweep_rows.csv")

    def test_gift_diverged_training_exits_2_without_a_summary(self, tmp_path, capsys):
        assert main(tiny_argv("gift", tmp_path / "o", "train.eps0=1e6")) == 2
        err = capsys.readouterr().err
        assert err.count("runtime error: TrainingDiverged") == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / "o" / "gift" / "gift_summary.csv").exists()

    def test_header_names_the_blas_set_up(self, tmp_path, capsys, monkeypatch):
        # bodies are byte-identical on one host and one BLAS set-up, which the header records
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(tiny_argv("gift", tmp_path / "o", "seeds=[0]")) == 0
        capsys.readouterr()
        meta, _ = read_csv_body(tmp_path / "o" / "gift" / "gift_summary.csv")
        blas = meta["blas"]
        assert sorted(blas) == ["MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "library"]
        assert blas["OMP_NUM_THREADS"] == "1" and blas["MKL_NUM_THREADS"] is None
        assert blas["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert blas["library"] is None or isinstance(blas["library"], str)

    def test_integer_level_runs_as_its_float(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(tiny_argv("gift", a, "device.s_t=1")) == 0
        assert main(tiny_argv("gift", b, "device.s_t=1.0")) == 0
        capsys.readouterr()
        assert csv_body(a / "gift" / "gift_summary.csv") == csv_body(b / "gift" / "gift_summary.csv")

    def test_gift_matched_levels_never_degrades(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = tiny_argv("gift", out, "device.s_t=0.2", "train.s0=0.2")
        assert main(argv) == 0
        capsys.readouterr()
        _, rows = read_csv_body(out / "gift" / "gift_summary.csv")
        assert all(float(r["loss_improvement"]) >= 0.0 for r in rows)

    def test_gift_zero_eta_is_degenerate_baseline(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_argv("gift", out, "gift.eta=0")) == 0
        capsys.readouterr()
        _, rows = read_csv_body(out / "gift" / "gift_summary.csv")
        for r in rows:
            # candidates coincide with w0 under shared noise, so the first
            # step ties the baseline and the tie keeps the baseline
            assert float(r["loss_improvement"]) == 0.0
            assert float(r["post_loss"]) == float(r["baseline_loss"])
            assert int(r["gift_steps"]) == 1
            assert int(r["selected_step"]) == 0
            assert r["stop_reason"] == "either_worse"

    def test_direction_norm_column_reads_the_unit_direction(self, tmp_path, capsys):
        # the estimate's own norm is not 1, so a column of ones shows the line search stepped along D / ||D||
        out = tmp_path / "run"
        assert main(tiny_argv("train", out)) == 0
        assert main(tiny_argv("gift", out) + ["--checkpoint", str(out / "train")]) == 0
        capsys.readouterr()
        _, rows = read_csv_body(out / "gift" / "gift_summary.csv")
        exp = Experiment(resolve_config(cli.build_parser().parse_args(tiny_argv("gift", out))))
        train_ds, _ = exp.datasets()
        assert [int(r["seed"]) for r in rows] == exp.seeds
        for r in rows:
            w0 = load_params(out / "train" / f"seed_{r['seed']}" / "params.npz")
            g = exp.gift_config
            raw = estimate_direction(w0, train_ds, exp.train_config.s0, g.est_k1, g.est_k2,
                                     RngStream(int(r["seed"]), STREAM_ESTIMATE)).norm()
            assert abs(raw - 1.0) > 1e-3
            assert abs(float(r["direction_norm"]) - 1.0) <= 1e-12

    def test_eval_reports_device_metrics(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_argv("train", out)) == 0
        argv = tiny_argv("eval", out) + ["--checkpoint", str(out / "train")]
        assert main(argv) == 0
        capsys.readouterr()
        _, rows = read_csv_body(out / "eval" / "eval.csv")
        assert len(rows) == 2
        for r in rows:
            assert float(r["loss"]) > 0.0
            assert float(r["loss_se"]) > 0.0
            assert int(r["k1"]) == 32 and int(r["k2"]) == 2


TWO_FAMILIES = 'sweep.families=["gaussian_additive","laplace"]'


def wide_argv(command, out, seeds, *settings):
    argv = [command, "--out", str(out), "--set", f"seeds={seeds}"]
    for item in ["arch.preset=shallow_mnist", "data.n_train=256", "data.n_test=128", "train.epochs=1", *settings]:
        argv += ["--set", item]
    return argv


def wide_gift_argv(out, seeds):
    return wide_argv("gift", out, seeds, "gift.est_k1=20", "gift.est_k2=100", "gift.k1=128", "gift.k2=8",
                     "gift.max_steps=1")


def command_peak(argv, capsys):
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    capsys.readouterr()
    assert codes == [0]
    return peak


class TestCommandMemory:
    def test_wide_gift_command_stays_within_memory(self, tmp_path, capsys):
        # the whole command at shallow_mnist dims: datasets, training, a 20 x 100 estimate (twenty one-point
        # blocks of 100 rows), a one-step line search and the fresh pair, in about a second. It peaks at about
        # 35.1 MiB; a raw direction beside its unit copy and the search's gathered points took it to 39.3 MiB,
        # two 1,000-row blocks to 58.8 MiB, and holding both of them at once to 82.6 MiB.
        assert len(point_blocks(Architecture(ARCH_PRESETS["shallow_mnist"]), 20, 100)) == 20
        peak = command_peak(wide_gift_argv(tmp_path / "run", "[0]"), capsys)
        assert peak < 37.5 * MIB, f"peak traced allocation {peak / MIB:.1f} MiB"

    def test_wide_eval_command_stays_within_memory(self, tmp_path, capsys):
        # eval --checkpoint at shallow_mnist dims scores the default 1,000 points x 8 on the device, which gathers
        # each block's rows itself. It peaks at about 10.4 MiB; gathering the 1,000 x 784 points first (6.3 MB)
        # took it to 16.4 MiB.
        out = tmp_path / "run"
        assert main(wide_argv("train", out, "[0]")) == 0
        peak = command_peak(wide_argv("eval", out, "[0]") + ["--checkpoint", str(out / "train")], capsys)
        assert peak < 11.2 * MIB, f"peak traced allocation {peak / MIB:.1f} MiB"

    def test_a_second_seed_adds_no_memory(self, tmp_path, capsys):
        # each seed drops its w0, direction, trace and device before the next: keeping them put 2.9 MiB on the peak
        one, two = (command_peak(wide_gift_argv(tmp_path / f"run_{n}", seeds), capsys)
                    for n, seeds in ((1, "[0]"), (2, "[0,1]")))
        assert two - one < 1 * MIB, f"two seeds {two / MIB:.1f} MiB, one {one / MIB:.1f}"


def device_cells(monkeypatch) -> dict:
    """The (family, s_t) of each device the CLI makes from here on, keyed by the device."""
    cells, make = {}, cli.Device

    def recorded(noise, seed):
        device = make(noise, seed=seed)
        cells[device] = noise.family, noise.level
        return device

    monkeypatch.setattr(cli, "Device", recorded)
    return cells


class TestSweep:
    def test_grid_rows_aggregate_and_flags(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = tiny_argv(
            "sweep", out,
            "sweep.s0_grid=[0.1,0.2]",
            "sweep.st_grid=[0.1,0.3]",
            'sweep.families=["gaussian_additive"]',
        )
        assert main(argv) == 0
        capsys.readouterr()
        _, rows = read_csv_body(out / "sweep" / "sweep_rows.csv")
        assert len(rows) == 2 * 2 * 2  # s0 x s_t x seeds
        _, agg = read_csv_body(out / "sweep" / "sweep_aggregate.csv")
        assert len(agg) == 4
        for cell in agg:
            members = [r for r in rows
                       if float(r["s0"]) == float(cell["s0"]) and float(r["s_t"]) == float(cell["s_t"])]
            assert int(cell["n_seeds"]) == 2
            manual = np.mean([float(r["loss_improvement"]) for r in members])
            assert float(cell["mean_loss_improvement"]) == pytest.approx(manual, abs=1e-12)
        summary = json.loads((out / "sweep" / "sweep.json").read_text())
        assert summary["n_rows"] == 8
        assert summary["failures"] == []
        assert summary["non_degradation"] is True

    def test_worker_count_keeps_bodies_byte_identical(self, tmp_path, capsys):
        grid = ("sweep.s0_grid=[0.1,0.2]", "sweep.st_grid=[0.1,0.3]")
        outs = {}
        for workers in (1, 2):
            outs[workers] = tmp_path / f"w{workers}"
            assert main(tiny_argv("sweep", outs[workers], *grid, f"sweep.workers={workers}")) == 0
        capsys.readouterr()
        for name in ("sweep_rows.csv", "sweep_aggregate.csv"):
            assert csv_body(outs[1] / "sweep" / name) == csv_body(outs[2] / "sweep" / name)

    def test_diverging_cells_are_recorded_under_any_worker_count(self, tmp_path, capsys):
        failures = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}" / "sweep"
            argv = tiny_argv("sweep", out.parent, "sweep.s0_grid=[0.1]", "train.eps0=1e6",
                             TWO_FAMILIES, f"sweep.workers={workers}")
            assert main(argv) == 2  # a failed cell is a runtime error; every artifact is still written
            assert (out / "sweep_rows.csv").exists()
            assert read_csv_body(out / "sweep_aggregate.csv")[1] == []  # written, header only
            failures[workers] = json.loads((out / "sweep.json").read_text())["failures"]
        capsys.readouterr()
        assert [(f["family"], f["s0"], f["seed"]) for f in failures[1]] == [
            ("gaussian_additive", 0.1, 0), ("gaussian_additive", 0.1, 1),
            ("laplace", 0.1, 0), ("laplace", 0.1, 1),
        ]
        assert failures[1] == failures[2]

    def test_training_and_estimate_run_once_per_s0_and_seed(self, tmp_path, capsys, monkeypatch):
        calls = {"train": 0, "estimate_direction": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        argv = tiny_argv("sweep", tmp_path / "o", "sweep.s0_grid=[0.1,0.2]", "sweep.st_grid=[0.1]", TWO_FAMILIES)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == {"train": 2 * 2, "estimate_direction": 2 * 2}  # |s0_grid| x |seeds|

    def test_families_share_w0_and_direction(self, tmp_path, capsys):
        grid = ("sweep.s0_grid=[0.1,0.2]", "sweep.st_grid=[0.1,0.3]")
        bodies = {}
        for name, families in (("both", TWO_FAMILIES),
                               ("gauss", 'sweep.families=["gaussian_additive"]'),
                               ("laplace", 'sweep.families=["laplace"]')):
            assert main(tiny_argv("sweep", tmp_path / name, *grid, families)) == 0
            bodies[name] = [read_csv_body(tmp_path / name / "sweep" / f)[1]
                            for f in ("sweep_rows.csv", "sweep_aggregate.csv")]
        capsys.readouterr()
        for i in range(2):
            assert bodies["both"][i] == bodies["gauss"][i] + bodies["laplace"][i]

    def test_one_family_failing_keeps_the_other_rows(self, tmp_path, capsys, monkeypatch):
        line_search = cli.gift_run
        cells = device_cells(monkeypatch)

        def flaky(device, *args):
            if cells[device][0] == "laplace":
                raise FloatingPointError("device diverged")
            return line_search(device, *args)

        monkeypatch.setattr(cli, "gift_run", flaky)
        out = tmp_path / "o"
        assert main(tiny_argv("sweep", out, "sweep.s0_grid=[0.1]", "sweep.st_grid=[0.1,0.3]", TWO_FAMILIES)) == 2
        capsys.readouterr()
        _, rows = read_csv_body(out / "sweep" / "sweep_rows.csv")
        assert [(r["family"], r["seed"], r["s_t"]) for r in rows] == [
            ("gaussian_additive", str(seed), s_t) for seed in (0, 1) for s_t in ("0.1", "0.3")]
        failures = json.loads((out / "sweep" / "sweep.json").read_text())["failures"]
        assert failures == [{"family": "laplace", "s0": 0.1, "seed": seed, "error": "device diverged"}
                            for seed in (0, 1)]

    def test_a_failed_line_search_drops_its_s0_and_keeps_the_others(self, tmp_path, capsys, monkeypatch):
        # s0=0.2 fails at the second s_t, after its first s_t scored on the device it shares with s0=0.1
        estimate, line_search = cli.estimate_direction, cli.gift_run
        levels = []  # (direction, s0) per estimate
        cells = device_cells(monkeypatch)

        def recorded(params, data, s0, *args):
            direction = estimate(params, data, s0, *args)
            levels.append((direction, s0))
            return direction

        def flaky(device, w0, direction, *args):
            s0 = next(level for d, level in levels if d is direction)
            if (s0, cells[device][1]) == (0.2, 0.3):
                raise FloatingPointError("device diverged")
            return line_search(device, w0, direction, *args)

        grid = ("sweep.st_grid=[0.1,0.3]", "sweep.workers=1")
        assert main(tiny_argv("sweep", tmp_path / "alone", "sweep.s0_grid=[0.1]", *grid)) == 0
        monkeypatch.setattr(cli, "estimate_direction", recorded)
        monkeypatch.setattr(cli, "gift_run", flaky)
        assert main(tiny_argv("sweep", tmp_path / "both", "sweep.s0_grid=[0.1,0.2]", *grid)) == 2
        capsys.readouterr()
        _, rows = read_csv_body(tmp_path / "both" / "sweep" / "sweep_rows.csv")
        assert {r["s0"] for r in rows} == {"0.1"}  # (family, 0.2, seed) drops its rows at both s_t
        failures = json.loads((tmp_path / "both" / "sweep" / "sweep.json").read_text())["failures"]
        assert failures == [{"family": "gaussian_additive", "s0": 0.2, "seed": seed, "error": "device diverged"}
                            for seed in (0, 1)]
        for name in ("sweep_rows.csv", "sweep_aggregate.csv"):
            assert csv_body(tmp_path / "both" / "sweep" / name) == csv_body(tmp_path / "alone" / "sweep" / name)

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, capsys, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        argv = tiny_argv("sweep", tmp_path / "o", "sweep.s0_grid=[0.1,0.2]", "sweep.st_grid=[0.1]",
                         "sweep.workers=8")
        assert main(argv) == 0
        capsys.readouterr()
        assert started == [2]  # one task per seed, whatever the number of s0 levels
