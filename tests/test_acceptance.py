"""Acceptance suite: one test per criterion, each printing a PASS line.

The training experiment (criteria 6, 7, 9) drives the command-line interface
end to end; two full runs with identical seeds back the determinism check.
Their two trainings run side by side, one BLAS thread each.
"""

import warnings

import numpy as np
import pytest

from stagemask import dsp, nn
from stagemask.audio import mix_at_snr
from stagemask.blocks import SABlock, TCNBlock, receptive_field
from stagemask.model import ModelConfig, MultiStageModel

from reference import (
    build, finite_diff_check, margined_clean, prefix_counts, randomize_params, run_cli,
    start_cli, whole_model_fd,
)

TOY_CONFIG_TEXT = (
    "stages = 3\nhidden = 32\nbottleneck = 16\nstacks = 2\nblocks = 4\n"
    "kernel = 3\nfft_size = 128\nhop = 64\nseed = 11\n"
    "lr = 0.0002\nbatch = 4\nepochs = 500\ntrain_seed = 3\n"
)


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            out[key] = value
    return out


ONE_BLAS_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _pipelines(tmp_path_factory):
    """The full synth/train/eval pipeline twice, tagged "first" and "second";
    the two trainings run side by side, one BLAS thread each."""
    roots = {tag: tmp_path_factory.mktemp(f"overfit_{tag}")
             for tag in ("first", "second")}
    for root in roots.values():
        assert run_cli("synth", "--n", 8, "--seed", 7,
                       "--outdir", root / "data").returncode == 0
        (root / "toy.conf").write_text(TOY_CONFIG_TEXT)
    trains = [start_cli("train", "--config", root / "toy.conf",
                        "--data", root / "data" / "manifest.tsv",
                        "--out", root / "model.ckpt", **ONE_BLAS_THREAD)
              for root in roots.values()]
    try:
        outputs = [train.communicate(timeout=900) for train in trains]
    finally:
        for train in trains:
            train.kill()  # a no-op once it has exited
    runs = {}
    for (tag, root), train, (stdout, stderr) in zip(roots.items(), trains, outputs):
        assert train.returncode == 0, stderr
        evaluation = run_cli("eval", "--ckpt", root / "model.ckpt",
                             "--manifest", root / "data" / "manifest.tsv")
        assert evaluation.returncode == 0, evaluation.stderr
        runs[tag] = {
            "ckpt_bytes": (root / "model.ckpt").read_bytes(),
            "train_stdout": stdout,
            "eval_stdout": evaluation.stdout,
            "totals": [float(line.split("\t")[-1])
                       for line in stdout.splitlines() if line],
            "kv": parse_kv(evaluation.stdout),
        }
    return runs


@pytest.fixture(scope="session")
def overfit(tmp_path_factory):
    """Pipeline results by tag; the first request runs both tags' pipelines."""
    runs = {}

    def run(tag):
        if not runs:
            runs.update(_pipelines(tmp_path_factory))
        return runs[tag]

    return run


def test_criterion_1_parameter_counts():
    large = ModelConfig(stages=5, hidden=256, bottleneck=128, stacks=3,
                        blocks_per_stack=8)
    counts = prefix_counts(MultiStageModel(large))
    assert counts == large.parameter_counts()
    assert counts["sa_block"] == 3 * (257 * 257 + 257) + 1 == 198_919
    assert abs(counts["sa_block"] - 200_000) <= 0.02 * 200_000
    assert counts["tcn_blocks"] == 1_643_520
    assert abs(counts["tcn_blocks"] - 1_680_000) <= 0.05 * 1_680_000
    assert abs(counts["total"] - 9_910_000) <= 0.25 * 9_910_000

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "large.conf")
        with open(config, "w") as fh:
            fh.write("stages = 5\nhidden = 256\nbottleneck = 128\n"
                     "stacks = 3\nblocks = 8\n")
        result = run_cli("info", "--config", config)
    assert result.returncode == 0
    kv = parse_kv(result.stdout)
    assert kv["params_sa_block"] == "198919"
    assert kv["params_tcn_blocks"] == "1643520"
    assert kv["params_total"] == str(counts["total"])
    print(f"criterion 1: PASS — sa=198919, tcn=1643520, total={counts['total']}")


def test_criterion_2_receptive_field():
    assert receptive_field(3, 8) == 511
    blocks, _ = build(
        lambda store: [TCNBlock(store, f"b{l}", 4, 6, 3, 2 ** l) for l in range(8)],
        np.random.default_rng(17),
    )

    def run(x):
        h = x
        for blk in blocks:
            h, _ = blk.forward(h, (0, t_len), train=False)
        return h

    t_len = 1100
    x = np.random.default_rng(18).standard_normal((4, t_len))
    base = run(x)
    t0 = t_len // 2
    bumped = x.copy()
    bumped[:, t0] += 10.0
    diff = np.abs(run(bumped) - base).max(axis=0)
    changed = np.nonzero(diff > 1e-12)[0]
    half = (511 - 1) // 2
    assert changed.min() == t0 - half
    assert changed.max() == t0 + half
    print("criterion 2: PASS — receptive_field(3,8)=511, empirical span ±255 exact")


def test_criterion_3_stft_round_trip():
    win = dsp.hann_window(512, 256)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4 * 512, 8 * 512))
        x = rng.standard_normal(n) * 0.2
        mag, phase = dsp.stft(x, win)
        y = dsp.istft(mag, phase, win, n)
        interior = slice(512, n - 512)
        err = np.linalg.norm(y[interior] - x[interior])
        err /= np.linalg.norm(x[interior])
        worst = max(worst, err)
    assert worst < 1e-6
    print(f"criterion 3: PASS — worst interior round-trip error {worst:.2e}")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(20)
    worst = {}

    def check(name, fn, point, tol):
        err = finite_diff_check(fn, point)
        worst[name] = err
        assert err < tol, f"{name}: {err}"

    c = rng.standard_normal((3, 7))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    check("pointwise_conv",
          lambda x: (float((c * nn.pointwise_conv(x, w, b)).sum()),
                     nn.pointwise_conv_backward(c, x, w)[0]),
          rng.standard_normal((4, 7)), 1e-4)

    k3 = rng.standard_normal((3, 3))
    b3 = rng.standard_normal(3)
    c2 = rng.standard_normal((3, 12))
    check("depthwise_dconv",
          lambda x: (float((c2 * nn.depthwise_dconv(x, k3, b3, 2, (0, 12))).sum()),
                     nn.depthwise_dconv_backward(c2, x, k3, 2, (0, 12))[0]),
          rng.standard_normal((3, 12)), 1e-4)

    slope = rng.uniform(0.1, 0.5, 3)
    x0 = rng.standard_normal((3, 12))
    x0[np.abs(x0) < 1e-3] = 0.2
    check("prelu",
          lambda x: (float((c2 * nn.prelu(x, slope)).sum()),
                     nn.prelu_backward(c2, x, slope)[0]),
          x0, 1e-4)

    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)

    def bn_fn(x):
        state = nn.BatchNormState(np.zeros(3), np.ones(3))
        y, xhat, inv_std = nn.batch_norm(x, gamma, beta, state, train=True)
        dx, _, _ = nn.batch_norm_backward(c2, xhat, inv_std, gamma)
        return float((c2 * y).sum()), dx

    check("batch_norm", bn_fn, rng.standard_normal((3, 12)), 1e-3)

    g8 = rng.uniform(0.5, 1.5, (8, 1))
    c8 = rng.standard_normal((8, 5))

    def gln_fn(x):
        y, xhat, inv_std = nn.global_layer_norm(x, g8, np.zeros((8, 1)), (0, 5))
        dx, _, _ = nn.global_layer_norm_backward(c8, xhat, inv_std, g8, (0, 5))
        return float((c8 * y).sum()), dx

    check("global_layer_norm", gln_fn, rng.standard_normal((8, 5)), 1e-4)

    c5 = rng.standard_normal((5, 4))
    check("softmax_columns",
          lambda x: (float((c5 * nn.softmax_columns(x)).sum()),
                     nn.softmax_columns_backward(c5, nn.softmax_columns(x))),
          rng.standard_normal((5, 4)), 1e-4)

    c6 = rng.standard_normal((4, 6))
    check("sigmoid",
          lambda x: (float((c6 * nn.sigmoid(x)).sum()),
                     nn.sigmoid_backward(c6, nn.sigmoid(x))),
          rng.standard_normal((4, 6)), 1e-4)

    b_mat = rng.standard_normal((4, 6))
    c46 = rng.standard_normal((5, 6))
    check("matmul",
          lambda a: (float((c46 * nn.matmul(a, b_mat)).sum()),
                     nn.matmul_backward(c46, a, b_mat)[0]),
          rng.standard_normal((5, 4)), 1e-4)

    bt = rng.standard_normal((4, 5))
    a0 = bt + np.sign(rng.standard_normal((4, 5))) * rng.uniform(0.5, 1.0, (4, 5))
    check("mean_abs_loss",
          lambda a: (nn.mean_abs_loss(a, bt),
                     nn.mean_abs_loss_backward(a, bt, a.size)),
          a0, 1e-4)

    # end-to-end toy model gradient, 20 sampled parameters; the clean target
    # keeps a margin from every stage estimate so no |.| kink is crossed
    toy = ModelConfig(stages=3, hidden=6, bottleneck=4, stacks=2,
                      blocks_per_stack=3, fft_size=16, hop=8, seed=5)
    model = MultiStageModel(toy)
    randomize_params(model.store, rng)
    x = np.abs(rng.standard_normal((9, 6)))
    clean = margined_clean(model, x, rng)
    e2e_worst, _ = whole_model_fd(model, [x], [clean], rng, picks=20)
    assert e2e_worst < 1e-3
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"criterion 4: PASS — ops: {summary}; end-to-end {e2e_worst:.1e}")


def test_criterion_5_architectural_identities():
    rng = np.random.default_rng(23)

    sa, store = build(lambda store: SABlock(store, "sa", 6), rng)
    randomize_params(store, rng)
    sa.delta.value[...] = np.zeros(1)
    x = rng.standard_normal((6, 9))
    assert np.array_equal(sa.forward(x, (0, 9), train=False)[0], x)

    tcn, _ = build(lambda store: TCNBlock(store, "blk", 4, 6, 3, 2), rng)
    tcn.out_conv.weight.value[...] = np.zeros((4, 6))
    tcn.out_conv.bias.value[...] = np.zeros(4)
    x2 = rng.standard_normal((4, 10))
    assert np.array_equal(tcn.forward(x2, (0, 10), train=True)[0], x2)

    w = rng.standard_normal((7, 9)) * 1e4
    y = nn.softmax_columns(w)
    assert np.all(np.abs(y.sum(axis=0) - 1.0) <= 1e-9)

    toy = ModelConfig(stages=3, hidden=6, bottleneck=4, stacks=1,
                      blocks_per_stack=2, fft_size=16, hop=8, seed=6)
    model = MultiStageModel(toy)
    randomize_params(model.store, rng)
    trace = model.forward_batch([np.abs(rng.standard_normal((9, 8)))], train=False)
    for mask in trace.masks:
        assert np.all(mask > 0.0) and np.all(mask < 1.0)
    for k in range(1, len(trace.estimates)):
        assert np.all(trace.estimates[k] >= 0.0)
        assert np.all(trace.estimates[k] <= trace.estimates[k - 1])
    print("criterion 5: PASS — attention/residual identities, stochastic "
          "columns, mask range, cascade contraction")


def test_criterion_6_toy_overfit(overfit):
    run = overfit("first")
    totals = run["totals"]
    assert len(totals) == 1000
    ratio = min(totals) / totals[0]
    assert ratio < 0.10, f"loss only reached {ratio:.3f} of initial"
    noisy = float(run["kv"]["mean_si_sdr_noisy_db"])
    enhanced = float(run["kv"]["mean_si_sdr_enhanced_db"])
    assert enhanced - noisy > 5.0
    print(f"criterion 6: PASS — loss ratio {ratio:.3f}, SI-SDR "
          f"{noisy:.2f} -> {enhanced:.2f} dB (+{enhanced - noisy:.2f})")


def test_criterion_7_stage_refinement_trend(overfit):
    run = overfit("first")
    kv = run["kv"]
    means = []
    k = 1
    while f"mean_stage{k}_spectral_l1" in kv:
        means.append(float(kv[f"mean_stage{k}_spectral_l1"]))
        k += 1
    assert len(means) == 3
    violations = sum(1 for a, b in zip(means, means[1:]) if b > a)
    if violations:
        warnings.warn(
            f"stage refinement trend violated in {violations} adjacent pair(s): "
            f"{means}"
        )
    print(f"criterion 7: {'PASS' if not violations else 'SOFT-FAIL (warning)'} "
          f"— stage spectral L1 {means}")


def test_criterion_8_mixing_exactness():
    rng = np.random.default_rng(24)
    snr_set = (-5.0, 0.0, 5.0, 10.0, 15.0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2000, 6000))
        clean = dsp.Waveform(
            np.sin(2 * np.pi * rng.uniform(100, 900) * np.arange(n) / 8000)
            * rng.uniform(0.05, 0.3),
            8000,
        )
        noise = dsp.Waveform(rng.standard_normal(n) * rng.uniform(0.01, 0.5), 8000)
        snr = float(snr_set[int(rng.integers(5))])
        noisy = mix_at_snr(clean, noise, snr)
        resid = noisy.samples - clean.samples
        measured = 10.0 * np.log10(
            np.mean(clean.samples ** 2) / np.mean(resid ** 2)
        )
        worst = max(worst, abs(measured - snr))
    assert worst < 1e-6
    print(f"criterion 8: PASS — worst SNR deviation {worst:.2e} dB over 100 triples")


def test_criterion_9_determinism(overfit):
    a = overfit("first")
    b = overfit("second")
    assert a["ckpt_bytes"] == b["ckpt_bytes"]
    assert a["train_stdout"] == b["train_stdout"]
    assert a["eval_stdout"] == b["eval_stdout"]
    print("criterion 9: PASS — bit-identical checkpoints, logs, and reports")
