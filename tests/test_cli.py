from pathlib import Path

import numpy as np
import pytest

from stagemask import cli, dsp
from stagemask.audio import (
    mix_at_snr, read_manifest, read_wav, synth_toy_dataset, write_manifest, write_wav,
)
from stagemask.config import default_run_config, parse_config_file
from stagemask.dsp import InputError
from stagemask.model import MultiStageModel
from stagemask.train import load_checkpoint, save_checkpoint

from reference import run_cli

FIXTURES = Path(__file__).parent / "fixtures"


def parse_kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            out[key] = value
    return out


@pytest.fixture()
def toy_config(tmp_path):
    path = tmp_path / "toy.conf"
    path.write_text(
        "# toy geometry\n"
        "stages = 2\nhidden = 6\nbottleneck = 4\nstacks = 1\nblocks = 2\n"
        "fft_size = 64\nhop = 32\nseed = 3\n"
        "lr = 0.002\nbatch = 2\nepochs = 4\ntrain_seed = 1\n"
    )
    return path


class TestInfo:
    def test_large_geometry_numbers(self, tmp_path):
        cfg = tmp_path / "large.conf"
        cfg.write_text(
            "stages = 5\nhidden = 256\nbottleneck = 128\nstacks = 3\nblocks = 8\n"
        )
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 0
        kv = parse_kv(result.stdout)
        assert kv["params_tcn_blocks"] == "1643520"
        assert kv["params_sa_block"] == "198919"
        assert kv["receptive_field_frames"] == "511"
        assert kv["freq_bins"] == "257"
        assert kv["fusion_blocks"] == "3"

    def test_defaults_give_257_bins(self, tmp_path):
        cfg = tmp_path / "empty.conf"
        cfg.write_text("# all defaults\n")
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 0
        assert parse_kv(result.stdout)["freq_bins"] == "257"

    def test_empty_config_parses_to_defaults(self, tmp_path):
        cfg = tmp_path / "empty.conf"
        cfg.write_text("# all defaults\n")
        assert parse_config_file(str(cfg)) == default_run_config()

    def test_single_stage_no_fusions(self, tmp_path):
        cfg = tmp_path / "one.conf"
        cfg.write_text("stages = 1\nhidden = 6\nbottleneck = 4\nstacks = 1\nblocks = 2\nfft_size = 64\n")
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 0
        assert "fusion_blocks: 0" in result.stdout

    def test_unknown_key_exits_2_with_line(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("stages = 2\nhiden = 6\n")
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 2
        assert "2" in result.stderr and "hiden" in result.stderr

    @pytest.mark.parametrize("text, problem", [
        ("stages = 2\nhidden = 6\nstages = 3\n", "3: duplicate key 'stages'"),
        ("stages = 2\nhidden =\n", "2: empty value for 'hidden'"),
    ], ids=["duplicate-key", "empty-value"])
    def test_bad_line_exits_2_naming_it(self, text, problem, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(text)
        assert cli.run(["info", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:{problem}\n")

    def test_bad_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("stages = many\n")
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 2

    def test_non_utf8_config_exits_2_naming_file(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_bytes(b"stages = 2\n\xff\n")
        result = run_cli("info", "--config", cfg)
        assert result.returncode == 2
        assert f"{cfg}: not UTF-8 at byte offset 11" in result.stderr

    def test_hop_is_half_a_frame_by_default_and_at_most(self, tmp_path, capsys):
        config = tmp_path / "hop.conf"
        config.write_text("fft_size = 64\n")
        assert cli.run(["info", "--config", str(config)]) == 0
        assert parse_kv(capsys.readouterr().out)["hop"] == "32"
        config.write_text("# the default fft_size, 512\nhop = 257\n")
        assert cli.run(["info", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}:2: hop: hop 257 exceeds fft_size // 2 = 256\n"
        )

    def test_builds_no_model(self, tmp_path, monkeypatch, capsys):
        def no_model(cfg):
            raise MemoryError("info built a model")

        monkeypatch.setattr(cli, "MultiStageModel", no_model)
        config = tmp_path / "large.conf"
        config.write_text("stages = 5\nhidden = 256\nbottleneck = 128\n")
        assert cli.run(["info", "--config", str(config)]) == 0
        assert parse_kv(capsys.readouterr().out)["params_sa_block"] == "198919"


class TestSynth:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        result = run_cli("synth", "--n", 3, "--seed", 5, "--outdir", out)
        assert result.returncode == 0
        names = sorted(p.name for p in out.iterdir())
        assert "manifest.tsv" in names
        assert "clean_000.wav" in names and "noisy_002.wav" in names

    def test_idempotent_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli("synth", "--n", 2, "--seed", 9, "--outdir", out1).returncode == 0
        assert run_cli("synth", "--n", 2, "--seed", 9, "--outdir", out2).returncode == 0
        for name in ("manifest.tsv", "clean_000.wav", "noisy_001.wav"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMix:
    def _write_inputs(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 4000
        clean = dsp.Waveform(0.3 * np.sin(2 * np.pi * 440 * np.arange(n) / 8000), 8000)
        noise = dsp.Waveform(0.2 * rng.standard_normal(n), 8000)
        write_wav(tmp_path / "clean.wav", clean)
        write_wav(tmp_path / "noise.wav", noise)
        return tmp_path / "clean.wav", tmp_path / "noise.wav"

    def test_zero_snr_verifies(self, tmp_path):
        clean_path, noise_path = self._write_inputs(tmp_path)
        out = tmp_path / "noisy.wav"
        result = run_cli("mix", "--clean", clean_path, "--noise", noise_path,
                         "--snr", 0, "--out", out)
        assert result.returncode == 0
        clean = read_wav(clean_path)
        noisy = read_wav(out)
        noise = noisy.samples - clean.samples
        snr = 10 * np.log10(np.mean(clean.samples ** 2) / np.mean(noise ** 2))
        # PCM16 quantization perturbs the written mixture slightly
        assert abs(snr) < 0.01

    @pytest.mark.parametrize("snr", ["-1e3", "-5"])
    def test_negative_snr_may_follow_the_option(self, snr, tmp_path):
        # argparse alone reads "-1e3" after --snr as an option name
        clean_path, noise_path = self._write_inputs(tmp_path)
        outs = [tmp_path / "spaced.wav", tmp_path / "joined.wav"]
        for out, snr_args in zip(outs, (["--snr", snr], [f"--snr={snr}"])):
            assert cli.run(["mix", "--clean", str(clean_path), "--noise", str(noise_path),
                            *snr_args, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_input_exits_2_no_output(self, tmp_path):
        out = tmp_path / "noisy.wav"
        result = run_cli("mix", "--clean", tmp_path / "missing.wav",
                         "--noise", tmp_path / "also_missing.wav",
                         "--snr", 0, "--out", out)
        assert result.returncode == 2
        assert not out.exists()


class TestSpecDump:
    def test_zero_wav_dumps_zero_matrix(self, tmp_path):
        wav = tmp_path / "z.wav"
        write_wav(wav, dsp.Waveform(np.zeros(1024), 16000))
        out = tmp_path / "z.csv"
        result = run_cli("spec-dump", "--in", wav, "--out", out)
        assert result.returncode == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 257  # default geometry
        assert all(float(v) == 0.0 for v in rows[0].split(","))

    def test_round_trip_dump_close(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 4096
        x = 0.3 * np.sin(2 * np.pi * 330 * np.arange(n) / 16000)
        x += 0.05 * rng.standard_normal(n)
        x[:32] *= np.linspace(0, 1, 32)
        x[-32:] *= np.linspace(1, 0, 32)
        wav1 = tmp_path / "orig.wav"
        write_wav(wav1, dsp.Waveform(x, 16000))
        decoded = read_wav(wav1)
        win = dsp.hann_window(512, 256)
        mag, phase = dsp.stft(decoded.samples, win)
        rt = dsp.Waveform(dsp.istft(mag, phase, win, len(decoded)), 16000)
        wav2 = tmp_path / "rt.wav"
        write_wav(wav2, rt)
        csv1 = tmp_path / "orig.csv"
        csv2 = tmp_path / "rt.csv"
        assert run_cli("spec-dump", "--in", wav1, "--out", csv1).returncode == 0
        assert run_cli("spec-dump", "--in", wav2, "--out", csv2).returncode == 0
        a = np.loadtxt(csv1, delimiter=",")
        b = np.loadtxt(csv2, delimiter=",")
        assert np.abs(a - b).max() < 1e-5


class TestTrainEnhanceEval:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("synth", "--n", 4, "--seed", 11, "--outdir", out).returncode == 0
        return out

    def test_pipeline_smoke(self, tmp_path, toy_config, dataset):
        ckpt = tmp_path / "model.ckpt"
        result = run_cli("train", "--config", toy_config,
                         "--data", dataset / "manifest.tsv", "--out", ckpt)
        assert result.returncode == 0, result.stderr
        lines = [l for l in result.stdout.splitlines() if l]
        assert len(lines) == 4 * 2  # epochs * ceil(4/2)
        first = lines[0].split("\t")
        assert first[0] == "1" and first[1] == "1"
        assert len(first) == 2 + 2 + 1  # epoch step L1 L2 total
        assert ckpt.exists()

        enhanced = tmp_path / "enhanced.wav"
        result = run_cli("enhance", "--ckpt", ckpt,
                         "--in", dataset / "noisy_000.wav", "--out", enhanced)
        assert result.returncode == 0, result.stderr
        inp = read_wav(dataset / "noisy_000.wav")
        out = read_wav(enhanced)
        assert len(out) == len(inp)
        assert out.sample_rate == inp.sample_rate

        result = run_cli("eval", "--ckpt", ckpt,
                         "--manifest", dataset / "manifest.tsv")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("item\t")
        assert "si_sdr_improvement_db: " in result.stdout

    def test_eval_empty_manifest_exits_2(self, tmp_path, toy_config, dataset):
        ckpt = tmp_path / "model.ckpt"
        assert run_cli("train", "--config", toy_config,
                       "--data", dataset / "manifest.tsv",
                       "--out", ckpt).returncode == 0
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        result = run_cli("eval", "--ckpt", ckpt, "--manifest", empty)
        assert result.returncode == 2


class TestManifestChecks:
    """``train`` and ``eval`` share one manifest check: a bad item exits 2
    naming the manifest item and both of its files."""

    ITEMS = {  # per item: (noisy rate, noisy length, clean rate, clean length)
        "rate-mismatch": [(8000, 4000, 16000, 4000)],
        "two-rates": [(8000, 4000, 8000, 4000), (16000, 4000, 16000, 4000)],
        "length-mismatch": [(8000, 3000, 8000, 4000)],
        "shorter-than-frame": [(8000, 50, 8000, 50)],
    }

    def _manifest(self, tmp_path, items, silent_clean=False):
        rng = np.random.default_rng(0)
        rows = []
        for i, (n_rate, n_len, c_rate, c_len) in enumerate(items):
            clean = rng.standard_normal(c_len) * (0.0 if silent_clean else 0.1)
            write_wav(tmp_path / f"clean{i}.wav", dsp.Waveform(clean, c_rate))
            write_wav(tmp_path / f"noisy{i}.wav",
                      dsp.Waveform(rng.standard_normal(n_len) * 0.1, n_rate))
            rows.append((f"clean{i}.wav", f"noisy{i}.wav", 0.0))
        path = tmp_path / "manifest.tsv"
        write_manifest(path, rows)
        return path

    def _run(self, command, manifest, tmp_path, toy_config):
        if command == "train":
            argv = ["train", "--config", str(toy_config), "--data", str(manifest),
                    "--out", str(tmp_path / "model.ckpt")]
        else:
            ckpt = tmp_path / "given.ckpt"
            model_cfg = parse_config_file(str(toy_config)).model
            save_checkpoint(MultiStageModel(model_cfg), ckpt)
            argv = ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest)]
        return cli.run(argv)

    @pytest.mark.parametrize("case", sorted(ITEMS))
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_item_exits_2_naming_both_files(
        self, command, case, tmp_path, toy_config, capsys
    ):
        items = self.ITEMS[case]
        manifest = self._manifest(tmp_path, items)
        assert self._run(command, manifest, tmp_path, toy_config) == 2
        err = capsys.readouterr().err
        bad = len(items) - 1
        assert f"{manifest}: item {bad + 1}: " in err
        assert str(tmp_path / f"noisy{bad}.wav") in err
        assert str(tmp_path / f"clean{bad}.wav") in err

    def test_eval_silent_reference_exits_2(self, tmp_path, toy_config, capsys):
        manifest = self._manifest(tmp_path, [(8000, 4000, 8000, 4000)], True)
        assert self._run("eval", manifest, tmp_path, toy_config) == 2
        err = capsys.readouterr().err
        assert "silent" in err and str(tmp_path / "clean0.wav") in err

    def test_non_utf8_manifest_exits_2_naming_file(self, tmp_path, toy_config, capsys):
        manifest = self._manifest(tmp_path, [(8000, 4000, 8000, 4000)])
        good = manifest.read_bytes()
        manifest.write_bytes(good + b"\xff\n")
        assert self._run("eval", manifest, tmp_path, toy_config) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: not UTF-8 at byte offset {len(good)}" in err

    def test_train_accepts_silent_targets(self, tmp_path, toy_config):
        manifest = self._manifest(tmp_path, [(8000, 4000, 8000, 4000)], True)
        assert self._run("train", manifest, tmp_path, toy_config) == 0


class TestTrainConfigValues:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["adam_eps", "clip_norm", "lr"])
    def test_non_finite_exits_2(self, key, value, tmp_path, toy_config, capsys):
        lines = toy_config.read_text().splitlines()
        lines = [line for line in lines if not line.startswith(f"{key} ")]
        config = tmp_path / "bad.conf"
        config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        ckpt = tmp_path / "model.ckpt"
        rc = cli.run(["train", "--config", str(config),
                      "--data", str(tmp_path / "manifest.tsv"), "--out", str(ckpt)])
        assert rc == 2
        where = f"{config}:{len(lines) + 1}: {key}"
        assert f"{where}: must be finite, got {value}" in capsys.readouterr().err
        assert not ckpt.exists()


class TestConfigValueErrors:
    """A rejected value exits 2 before any work, naming the key as written
    and its line; the ranges keep every header field and the receptive field
    in int32 and the seed in int64."""

    CASES = {  # settings appended to the toy config; the last one is rejected
        "adam_eps": (["adam_eps = 0"], "adam_eps: must be positive, got 0.0"),
        "blocks": (["blocks = 0"], "blocks: must lie in [1, 31], got 0"),
        "blocks-15000": (["stages = 1", "blocks = 15000"],
                         "blocks: must lie in [1, 31], got 15000"),
        "receptive-field": (["kernel = 3", "blocks = 31"],
                            "blocks: receptive field of 4294967295 frames "
                            "exceeds 2147483647"),
        "hidden-int32": (["hidden = 2147483648"],
                         "hidden: must lie in [1, 2147483647], got 2147483648"),
        "seed-negative": (["seed = -1"],
                          "seed: must lie in [0, 9223372036854775807], got -1"),
        "seed-int64": (["seed = 9223372036854775808"],
                       "seed: must lie in [0, 9223372036854775807], "
                       "got 9223372036854775808"),
        "train_seed": (["train_seed = -1"], "train_seed: must be >= 0, got -1"),
        "hop-above-half-frame": (["hop = 48", "fft_size = 64"],
                                 "fft_size: hop 48 exceeds fft_size // 2 = 32"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["info", "train"])
    def test_exits_2_naming_key_and_line(self, command, case, tmp_path, toy_config,
                                         capsys):
        settings, problem = self.CASES[case]
        keys = {setting.split()[0] for setting in settings}
        lines = [line for line in toy_config.read_text().splitlines()
                 if line.split(" ")[0] not in keys] + settings
        config = tmp_path / "bad.conf"
        config.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "model.ckpt"
        argv = ["info", "--config", str(config)]
        if command == "train":
            argv = ["train", "--config", str(config),
                    "--data", str(tmp_path / "manifest.tsv"), "--out", str(ckpt)]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {config}:{len(lines)}: {problem}\n"
        assert not ckpt.exists()


class TestBadInput:
    """Each reader rejects a missing or malformed file with exit 2 and the
    error its own call raises, which names the file; the library's checks
    on a file's content exit 2 with the library's message behind the file's
    name, and on an argument with the bare message.  None makes output."""

    READERS = {  # reader -> (library call, command that reads the file with it)
        "wav": (read_wav, lambda f, tmp, conf: [
            "spec-dump", "--in", f, "--out", tmp / "o.csv"]),
        "manifest": (read_manifest, lambda f, tmp, conf: [
            "train", "--config", conf, "--data", f, "--out", tmp / "m.ckpt"]),
        "checkpoint": (load_checkpoint, lambda f, tmp, conf: [
            "enhance", "--ckpt", f, "--in", FIXTURES / "toy_noisy.wav",
            "--out", tmp / "o.wav"]),
        "config": (parse_config_file, lambda f, tmp, conf: ["info", "--config", f]),
    }

    @staticmethod
    def _exits_2(argv, call, where, tmp_path, capsys):
        """The CLI's message is ``call``'s, behind ``where`` unless None."""
        with pytest.raises(InputError) as exc:
            call()
        message = str(exc.value) if where is None else f"{where}: {exc.value}"
        before = sorted(tmp_path.iterdir())
        assert cli.run([str(a) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(tmp_path.iterdir()) == before
        return message

    @pytest.mark.parametrize("state", ["missing", "malformed"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_bad_file_exits_2_naming_it(self, reader, state, tmp_path, toy_config,
                                        capsys):
        path = tmp_path / f"{state}.{reader}"
        if state == "malformed":
            path.write_bytes(b"junk\n")  # one field, no `=`, no RIFF or magic
        call, argv = self.READERS[reader]
        message = self._exits_2(argv(path, tmp_path, toy_config),
                                lambda: call(str(path)), None, tmp_path, capsys)
        assert message.startswith(f"{path}:")

    @pytest.mark.parametrize("case", [
        "synth-n-0", "mix-empty-noise", "mix-rate-mismatch", "mix-silent-clean",
        "mix-silent-noise", "enhance-short-input", "spec-dump-short-input"])
    def test_library_check_exits_2_with_its_message(self, case, tmp_path, capsys):
        wavs = {"short": (0.1 * np.ones(20), 8000), "empty": (np.zeros(0), 8000),
                "silent": (np.zeros(20), 8000), "wideband": (0.1 * np.ones(20), 16000)}
        for name, (samples, rate) in wavs.items():
            write_wav(tmp_path / f"{name}.wav", dsp.Waveform(samples, rate))
        short, empty, silent, wideband = (tmp_path / f"{name}.wav" for name in wavs)
        ckpt = FIXTURES / "toy_satcn001.ckpt"

        def mix(clean, noise):
            return (["mix", "--clean", clean, "--noise", noise, "--snr", 0,
                     "--out", tmp_path / "o.wav"],
                    lambda: mix_at_snr(read_wav(clean), read_wav(noise), 0.0),
                    f"{clean}, {noise}")

        argv, call, where = {
            "synth-n-0": (["synth", "--n", 0, "--outdir", tmp_path / "out"],
                          lambda: synth_toy_dataset(0), None),
            "mix-empty-noise": mix(short, empty),
            "mix-rate-mismatch": mix(short, wideband),
            "mix-silent-clean": mix(silent, short),
            "mix-silent-noise": mix(short, silent),
            "enhance-short-input": (
                ["enhance", "--ckpt", ckpt, "--in", short, "--out", tmp_path / "o.wav"],
                lambda: load_checkpoint(ckpt)[0].enhance(read_wav(short)), short),
            "spec-dump-short-input": (
                ["spec-dump", "--in", short, "--out", tmp_path / "o.csv"],
                lambda: dsp.stft(read_wav(short).samples, dsp.hann_window(512, 256)),
                short),
        }[case]
        self._exits_2(argv, call, where, tmp_path, capsys)

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_snr_exits_2_naming_the_option(self, snr, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        write_wav(wav, dsp.Waveform(0.1 * np.ones(20), 8000))
        with pytest.raises(SystemExit) as exc:
            cli.run(["mix", "--clean", str(wav), "--noise", str(wav), f"--snr={snr}",
                     "--out", str(tmp_path / "o.wav")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument --snr: must be finite, got {snr}\n")
        assert sorted(tmp_path.iterdir()) == [wav]

    def test_non_finite_snr_after_the_option_exits_2(self, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        write_wav(wav, dsp.Waveform(0.1 * np.ones(20), 8000))
        with pytest.raises(SystemExit) as exc:
            cli.run(["mix", "--clean", str(wav), "--noise", str(wav), "--snr", "-inf",
                     "--out", str(tmp_path / "o.wav")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --snr: must be finite, got -inf\n")
        assert sorted(tmp_path.iterdir()) == [wav]

    @pytest.mark.parametrize("missing, problem", [
        ("--data", "no training manifest (pass --data or set train_manifest)"),
        ("--out", "no checkpoint path (pass --out or set checkpoint)"),
    ], ids=["manifest", "checkpoint"])
    def test_train_without_a_path_exits_2(self, missing, problem, tmp_path, toy_config,
                                          capsys):
        paths = {"--data": tmp_path / "manifest.tsv", "--out": tmp_path / "m.ckpt"}
        del paths[missing]
        argv = ["train", "--config", str(toy_config)]
        for option, path in paths.items():
            argv += [option, str(path)]
        assert cli.run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert sorted(tmp_path.iterdir()) == [toy_config]


class TestUsage:
    def test_out_of_memory_exits_3(self, tmp_path, toy_config, monkeypatch, capsys):
        # the real allocation is never attempted: under overcommit it can succeed
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        data = tmp_path / "data"
        assert cli.run(["synth", "--n", "2", "--seed", "3", "--outdir", str(data)]) == 0
        monkeypatch.setattr(cli, "MultiStageModel", no_memory)
        ckpt = tmp_path / "model.ckpt"
        assert cli.run(["train", "--config", str(toy_config),
                        "--data", str(data / "manifest.tsv"), "--out", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unable to allocate" in err
        assert not ckpt.exists()

    def test_no_command_exits_2(self):
        assert run_cli().returncode == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        wav = tmp_path / "in.wav"
        write_wav(wav, dsp.Waveform(np.zeros(1024), 16000))
        result = run_cli("spec-dump", "--in", wav,
                         "--out", tmp_path / "no_such_dir" / "out.csv")
        assert result.returncode == 3
