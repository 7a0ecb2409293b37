"""End-to-end command tests: flags, files, exit codes, determinism."""

import numpy as np
import pytest

import capsroute.checks as checks
import capsroute.cli as cli
from capsroute import routing
from capsroute.cli import RunConfig, bench_routing, main
from capsroute.data import DataError, load_checkpoint, load_manifest, load_pgm, save_checkpoint
from capsroute.evaluation import auc
from capsroute.model import ConfigError, NetworkConfig, baseline_variant, build_network


TINY = [
    "input_size=32",
    "down_c1=4",
    "down_c2=8",
    "layers_per_block=1",
    "growth_rate=4",
    "bottleneck_width=2",
    "head_channels=8",
    "caps_dim_class=4",
    "routing_iters=2",
    "batch_size=4",
]


def _tiny_args(extra):
    out = list(extra)
    for kv in TINY:
        out += ["--set", kv]
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out-dir", str(root), "--n-train", "12", "--n-test", "6", "--size", "32", "--seed", "5"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "model.ckpt"
    rc = main(
        _tiny_args(
            [
                "train",
                "--manifest", str(dataset / "train.csv"),
                "--images-root", str(dataset),
                "--out", str(out),
                "--seed", "3",
                "--epochs", "2",
            ]
        )
    )
    assert rc == 0
    return out


class TestRunConfig:
    def test_defaults_and_overrides(self):
        cfg = RunConfig()
        assert cfg["alpha"] == 0.001 and cfg["switch_epoch"] == 50
        assert cfg.network_config() == NetworkConfig()  # one default architecture
        cfg.set("alpha", "0.01")
        assert cfg["alpha"] == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config key"):
            RunConfig().set("learning_rate", "0.1")

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            RunConfig().set("flip_p", "1.5")

    def test_file_parsing_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nalpha = 0.002\n\nbatch_size=8  # inline\n")
        cfg = RunConfig.from_file(p)
        assert cfg["alpha"] == 0.002 and cfg["batch_size"] == 8

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha 0.002\n")
        with pytest.raises(DataError, match="key = value"):
            RunConfig.from_file(p)

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"alpha = 0.002 # \xff\n")
        with pytest.raises(DataError, match="run.cfg: cannot be read as text"):
            RunConfig.from_file(p)

    def test_key_set_twice_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("input_size = 64\nalpha = 0.002\ninput_size = 96\n")
        with pytest.raises(DataError, match=r"run.cfg:3: .*'input_size'.* line 1"):
            RunConfig.from_file(p)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--spatial", "0"],
        ["bench", "--in-maps", "0"],
        ["bench", "--out-maps", "0"],
        ["bench", "--iters", "0"],
        ["bench", "--repeat", "0"],
        ["synth", "--out-dir", "unused", "--n-train", "-3"],
        ["synth", "--out-dir", "unused", "--n-test", "-1"],
        ["train", "--manifest", "m.csv", "--images-root", ".", "--out", "x.ckpt", "--epochs", "-1"],
        ["train", "--manifest", "m.csv", "--images-root", ".", "--out", "x.ckpt", "--seed", "-1"],
        ["synth", "--out-dir", "unused", "--seed", "-1"],
    ],
)
def test_out_of_range_integer_flag_exit_1(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert f"argument {argv[-2]}: invalid int in" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # rejected before anything is written


@pytest.mark.parametrize("tau", ["nan", "inf", "-3", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--manifest", "m.csv", "--images-root", ".", "--ckpt", "x.ckpt", "--report", "r.csv"],
        ["gradcam", "--ckpt", "x.ckpt", "--image", "i.pgm", "--class", "0", "--out", "h.pgm"],
    ],
)
def test_out_of_range_tau_exit_1(argv, tau, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--tau", tau]) == 1
    assert "argument --tau: invalid float in [0.0, 1.0]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class TestSynth:
    def test_file_count(self, dataset):
        pgms = list(dataset.glob("*.pgm"))
        csvs = list(dataset.glob("*.csv"))
        assert len(pgms) == 18 and len(csvs) == 2

    def test_loadable_manifest(self, dataset):
        entries = load_manifest(dataset / "train.csv")
        assert len(entries) == 12
        img = load_pgm(dataset / entries[0].path)
        assert img.shape == (32, 32)

    def test_unwritable_dir_errors(self):
        rc = main(["synth", "--out-dir", "/proc/nope", "--n-train", "1", "--n-test", "1", "--size", "32"])
        assert rc == 2

    @pytest.mark.parametrize("bad", [["--size", "0"], ["--n-classes", "0"]])
    def test_bad_arguments_create_no_directory(self, tmp_path, bad):
        out = tmp_path / "d"
        rc = main(["synth", "--out-dir", str(out), "--n-train", "1", "--n-test", "1"] + bad)
        assert rc == 2
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, trained):
        assert trained.exists()
        metrics = trained.with_suffix(trained.suffix + ".metrics.csv")
        lines = metrics.read_text().splitlines()
        assert lines[0] == "epoch,lambda_plus,lambda_minus,mean_loss"
        assert len(lines) == 3  # header + 2 epochs
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1.0" and first[2] == "0.05"

    def test_seed_repeat_identical_metrics(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.ckpt"
            rc = main(
                _tiny_args(
                    [
                        "train",
                        "--manifest", str(dataset / "train.csv"),
                        "--images-root", str(dataset),
                        "--out", str(out),
                        "--seed", "11",
                        "--epochs", "1",
                    ]
                )
            )
            assert rc == 0
            outs.append(out)
        m0 = outs[0].with_suffix(".ckpt.metrics.csv").read_bytes()
        m1 = outs[1].with_suffix(".ckpt.metrics.csv").read_bytes()
        assert m0 == m1
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_manifest_exit_2(self, dataset, tmp_path):
        rc = main(
            [
                "train",
                "--manifest", str(dataset / "absent.csv"),
                "--images-root", str(dataset),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert rc == 2

    def test_non_utf8_manifest_exit_2(self, dataset, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"path,labels,boxes\n\xff.pgm,0,\n")
        rc = main(["train", "--manifest", str(manifest), "--images-root", str(dataset), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "m.csv: cannot be read as text" in capsys.readouterr().err

    def test_rejected_input_size_exit_2_without_checkpoint(self, dataset, tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        rc = main(
            _tiny_args(
                [
                    "train",
                    "--manifest", str(dataset / "train.csv"),
                    "--images-root", str(dataset),
                    "--out", str(out),
                    "--epochs", "1",
                ]
            )
            + ["--set", "input_size=30"]
        )
        assert rc == 2
        assert "input_size 30 is not supported" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_directory_out_exit_2_before_training(self, dataset, tmp_path, capsys):
        out = tmp_path / "ckpts"
        out.mkdir()
        args = ["train", "--manifest", str(dataset / "train.csv"), "--images-root", str(dataset), "--out", str(out)]
        rc = main(_tiny_args(args + ["--epochs", "1"]))
        captured = capsys.readouterr()
        assert rc == 2
        assert "is a directory" in captured.err and "epoch 0" not in captured.out
        assert list(out.iterdir()) == []

    def test_missing_required_flag_exit_1(self):
        assert main(["train", "--manifest", "x.csv"]) == 1

    def test_config_file_and_flag_precedence(self, dataset, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        # the file sets each key once (a repeated key is an error), routing_iters to 4
        tiny = [kv for kv in TINY if not kv.startswith("routing_iters=")]
        cfgfile.write_text("\n".join(tiny) + "\nrouting_iters=4\n")
        out = tmp_path / "c.ckpt"
        rc = main(
            [
                "train",
                "--manifest", str(dataset / "train.csv"),
                "--images-root", str(dataset),
                "--config", str(cfgfile),
                "--set", "routing_iters=1",  # flag wins over file
                "--out", str(out),
                "--epochs", "0",
            ]
        )
        assert rc == 0
        ck = load_checkpoint(out)
        assert ck.config["routing_iters"] == "1"
        assert ck.config["head_channels"] == "8"


class TestEval:
    def test_report_columns_and_oracle(self, dataset, trained, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(
            [
                "eval",
                "--manifest", str(dataset / "test.csv"),
                "--images-root", str(dataset),
                "--ckpt", str(trained),
                "--report", str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "class,auc,n_pos,n_neg"
        assert lines[-1].startswith("macro,")
        # cross-check one AUC value against direct computation
        from capsroute.cli import _load_split, _restore_network
        from capsroute.training import standardize

        net, cfg = _restore_network(load_checkpoint(trained))
        images, labels, _ = _load_split(dataset / "test.csv", dataset, 32, 4)
        scores = net.predict(np.stack([standardize(i) for i in images])[:, None])
        for c in range(4):
            want = auc(scores[:, c], labels[:, c])
            cell = lines[1 + c].split(",")[1]
            if want is None:
                assert cell == ""
            else:
                assert float(cell) == want

    def test_report_rerun_byte_identical(self, dataset, trained, tmp_path):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for r in (r1, r2):
            assert main(
                [
                    "eval",
                    "--manifest", str(dataset / "test.csv"),
                    "--images-root", str(dataset),
                    "--ckpt", str(trained),
                    "--report", str(r),
                ]
            ) == 0
        assert r1.read_bytes() == r2.read_bytes()
        loc1 = r1.with_suffix(".csv.loc.csv")
        loc2 = r2.with_suffix(".csv.loc.csv")
        assert loc1.read_bytes() == loc2.read_bytes()

    def test_incompatible_checkpoint_names_keys(self, dataset, trained, tmp_path):
        ck = load_checkpoint(trained)
        ck.config["head_channels"] = "16"  # architecture no longer matches tensors
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, ck)
        rc = main(
            [
                "eval",
                "--manifest", str(dataset / "test.csv"),
                "--images-root", str(dataset),
                "--ckpt", str(bad),
                "--report", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("routing_iters", None, "lacks key(s) routing_iters"),
            ("baseline", "1", "unknown config key 'baseline'"),
        ],
    )
    def test_damaged_config_echo_exit_2(self, command, key, value, message, dataset, trained, tmp_path, capsys):
        # a wrong echo must not load a default model: a missing routing_iters
        # would build the CLI default, and an older checkpoint's `baseline=1`
        # line, if skipped, would load an unrouted net as routed
        ck = load_checkpoint(trained)
        if value is None:
            del ck.config[key]
        else:
            ck.config[key] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, ck)
        entries = load_manifest(dataset / "test.csv")
        args = {
            "eval": ["--manifest", str(dataset / "test.csv"), "--images-root", str(dataset)]
            + ["--report", str(tmp_path / "r.csv")],
            "gradcam": ["--image", str(dataset / entries[0].path), "--class", "0", "--out", str(tmp_path / "h.pgm")],
        }[command]
        assert main([command, "--ckpt", str(bad), *args]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.glob("r.csv*")) and not any(tmp_path.glob("h.pgm*"))

    def test_baseline_echo_restores_the_unrouted_net(self, dataset, tmp_path):
        out = tmp_path / "base.ckpt"
        train = ["train", "--manifest", str(dataset / "train.csv"), "--images-root", str(dataset), "--out", str(out)]
        assert main([*_tiny_args([*train, "--epochs", "1"]), "--set", "routing_iters=0"]) == 0
        echo = load_checkpoint(out).config
        assert echo["routing_iters"] == "0" and "baseline" not in echo
        net, cfg = cli._restore_network(load_checkpoint(out))
        assert cfg["routing_iters"] == net.config.routing_iters == 0
        assert net.fc.iterations == 0 and all(lay.route.iterations == 0 for lay in net.blocks[0])

    def test_box_class_out_of_range_exit_2_without_report(self, dataset, trained, tmp_path, capsys):
        lines = (dataset / "test.csv").read_text().splitlines()
        path = lines[1].split(",")[0]
        lines[1] = f"{path},,9:1:1:4:4"  # 4 classes: box class 9 does not exist
        manifest = tmp_path / "bad.csv"
        manifest.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.csv"
        rc = main(
            [
                "eval",
                "--manifest", str(manifest),
                "--images-root", str(dataset),
                "--ckpt", str(trained),
                "--report", str(report),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert path in err and "9 out of range" in err
        assert not any(tmp_path.glob("r.csv*"))

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_manifest_exit_2_without_output(self, command, dataset, trained, tmp_path, capsys):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,labels,boxes\n")
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--images-root", str(dataset)]
        if command == "train":
            args = _tiny_args([*args, "--out", str(out / "x.ckpt")])
        else:
            args += ["--ckpt", str(trained), "--report", str(out / "r.csv")]
        assert main(args) == 2
        assert "empty.csv: the manifest lists no images" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv"]


class TestGradcam:
    def test_heatmap_and_box_outputs(self, dataset, trained, tmp_path):
        entries = load_manifest(dataset / "test.csv")
        target = next(e for e in entries if e.labels)
        out = tmp_path / "heat.pgm"
        rc = main(
            [
                "gradcam",
                "--ckpt", str(trained),
                "--image", str(dataset / target.path),
                "--class", str(target.labels[0]),
                "--out", str(out),
            ]
        )
        assert rc == 0
        heat = load_pgm(out)
        assert heat.shape == (32, 32)
        box_text = out.with_suffix(".pgm.box.txt").read_text().strip()
        if box_text != "no detection":
            x, y, w, h = map(int, box_text.split())
            assert w >= 1 and h >= 1
            assert heat.max() == 1.0  # max pixel 255 when nonzero

    def test_zero_weight_model_reports_no_detection(self, dataset, trained, tmp_path):
        ck = load_checkpoint(trained)
        ck.tensors["fc.w"] = np.zeros_like(ck.tensors["fc.w"])
        zero_ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero_ckpt, ck)
        entries = load_manifest(dataset / "test.csv")
        out = tmp_path / "black.pgm"
        rc = main(
            [
                "gradcam",
                "--ckpt", str(zero_ckpt),
                "--image", str(dataset / entries[0].path),
                "--class", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        np.testing.assert_array_equal(load_pgm(out), np.zeros((32, 32)))
        assert out.with_suffix(".pgm.box.txt").read_text().strip() == "no detection"

    def test_class_out_of_range_exit_2(self, dataset, trained, tmp_path):
        entries = load_manifest(dataset / "test.csv")
        rc = main(
            [
                "gradcam",
                "--ckpt", str(trained),
                "--image", str(dataset / entries[0].path),
                "--class", "9",
                "--out", str(tmp_path / "h.pgm"),
            ]
        )
        assert rc == 2


def _per_reader_layout(tensors: dict) -> dict:
    """The state layout of checkpoints written while every BN normalized its
    own input: each dense reader holds the running stats of the channels it
    reads (`*.bn1.running_*`, `head.bn.running_*`), none of them `dense.*`."""
    out = dict(tensors)
    for stat in ("running_mean", "running_var"):
        dense = out.pop(f"dense.{stat}")
        for name, gamma in tensors.items():
            if name.endswith(".bn1.gamma") or name == "head.bn.gamma":
                out[name.replace("gamma", stat)] = dense[: gamma.size].copy()
    return out


class TestCheckpointLayout:
    def test_state_holds_one_copy_per_dense_channel(self, trained):
        tensors = load_checkpoint(trained).tensors
        assert not any(".bn1.running" in k or k.startswith("head.bn.running") for k in tensors)
        assert tensors["dense.running_mean"].shape == tensors["head.bn.gamma"].shape == (12,)
        assert tensors["block0.layer0.bn2.running_var"].shape == (8,)

    def test_save_load_round_trip(self, dataset, trained, tmp_path):
        net, cfg = cli._restore_network(load_checkpoint(trained))
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, cli._checkpoint_from(net, cfg, cli.AdamState(), np.random.default_rng(0)))
        restored, _ = cli._restore_network(load_checkpoint(again))
        want = net.state_arrays()
        got = restored.state_arrays()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name]), name
        images = np.random.default_rng(1).standard_normal((3, 1, 32, 32))
        assert np.array_equal(restored.predict(images), net.predict(images))

    def test_echo_must_describe_the_net(self):
        cfg = RunConfig()
        assert cfg["routing_iters"] == 3
        net = baseline_variant(cfg.network_config(), seed=0)
        with pytest.raises(ConfigError, match="does not describe"):
            cli._checkpoint_from(net, cfg, cli.AdamState(), np.random.default_rng(0))

    @pytest.mark.parametrize("arm", ["fc", "dense"])
    def test_mixed_arm_refused(self, arm):
        # the echo records routing_iters alone, so a net whose layers route
        # at other depths would restore as a different model without error
        cfg = RunConfig()
        net = build_network(cfg.network_config(), seed=0)
        if arm == "fc":
            net.fc.iterations = 0
        else:
            net.blocks[0][1].route.iterations = 1
        want = "fc" if arm == "fc" else "block0.layer1"
        with pytest.raises(ConfigError, match=rf"layer\(s\) {want} route at other than routing_iters=3"):
            cli._checkpoint_from(net, cfg, cli.AdamState(), np.random.default_rng(0))

    def test_per_reader_layout_rejected(self, dataset, trained, tmp_path, capsys):
        ck = load_checkpoint(trained)
        ck.tensors = _per_reader_layout(ck.tensors)
        assert "block0.layer0.bn1.running_mean" in ck.tensors and "head.bn.running_var" in ck.tensors
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, ck)
        with pytest.raises(ConfigError, match=r"missing \['dense.running_mean', 'dense.running_var'\]"):
            cli._restore_network(load_checkpoint(old))
        entry = load_manifest(dataset / "test.csv")[0]
        report, heat = tmp_path / "r.csv", tmp_path / "h.pgm"
        args = ["eval", "--manifest", str(dataset / "test.csv"), "--images-root", str(dataset)]
        assert main([*args, "--ckpt", str(old), "--report", str(report)]) == 2
        assert "dense.running_mean" in capsys.readouterr().err
        args = ["gradcam", "--ckpt", str(old), "--image", str(dataset / entry.path), "--class", "0"]
        assert main([*args, "--out", str(heat)]) == 2
        assert "dense.running_mean" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ckpt"]


class TestBench:
    def test_csv_shape_and_ordering(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--spatial", "256",
                "--in-maps", "8",
                "--out-maps", "8",
                "--iters", "2",
                "--repeat", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,S,I,J,r,median_ns"
        modes = [l.split(",")[0] for l in lines[1:]]
        assert modes == ["plain", "naive", "kernel"]
        for l in lines[1:]:
            assert int(l.split(",")[-1]) > 0

    def test_bench_routing_returns_all_modes(self):
        res = bench_routing(spatial=128, in_maps=4, out_maps=4, iters=2, repeat=3)
        assert set(res) == {"plain", "naive", "kernel"}

    def test_single_iteration_modes_near_plain(self):
        # at r=1 the couplings are uniform and routing degenerates to one
        # (scaled) combination; the kernel mode, like the shipped layer,
        # builds no Gram matrix, so both modes must land within 2x of the
        # plain conv
        res = bench_routing(spatial=4096, in_maps=32, out_maps=32, iters=1, repeat=15)
        assert res["naive"] <= 2 * res["plain"], res
        assert res["kernel"] <= 2 * res["plain"], res


class TestShippedLayer:
    """`bench`'s kernel mode and `selftest` run the shipped routed layer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = routing.conv1x1_capsule_forward

        def counting(*args, **kwargs):
            counted.append(kwargs.get("grad_mode"))
            return real(*args, **kwargs)

        # `bench` looks the layer up in `cli`, `selftest`'s suites in `checks`
        monkeypatch.setattr(cli, "conv1x1_capsule_forward", counting)
        monkeypatch.setattr(checks, "conv1x1_capsule_forward", counting)
        return counted

    @pytest.mark.parametrize("iters", [1, 3])
    def test_bench_kernel_mode_runs_the_layer(self, calls, iters):
        bench_routing(spatial=64, in_maps=4, out_maps=3, iters=iters, repeat=2)
        # one warm-up and one timed call per round
        assert calls == ["none"] * 4

    def test_selftest_runs_the_layer(self, calls, capsys):
        assert main(["selftest"]) == 0
        assert calls.count("none") >= 40


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for suite in ("routing-equivalence", "gradient-checks", "auc-oracle", "iobb-geometry"):
            assert suite in out
        # the suites run at the acceptance tests' full size
        assert "routing-equivalence: 400/400 passed" in out
        assert "gradient-checks: 52/52 passed" in out
        assert "auc-oracle: 1000/1000 passed" in out
        assert "iobb-geometry: 4/4 passed" in out

    def test_injected_bug_fails_with_seeds(self, monkeypatch, capsys):
        # corrupt the Gram-space evidence update the shipped layer runs:
        # the equivalence suite must notice and name failing seeds
        real_step = routing._gram_step

        def bad_step(c, G, W):
            return real_step(c, G, W) * 1.001

        monkeypatch.setattr(routing, "_gram_step", bad_step)
        assert main(["selftest"]) == 2
        err = capsys.readouterr().err
        assert "routing-equivalence" in err and "seed" in err
