"""Pinned result digests: the bodies a tiny desk_small run writes, per stream version.

Criterion 10 compares two runs of the same code; this test compares a run with
digests recorded when the current STREAM_VERSION was declared. It runs tiny
desk_small `train`, `gift` and `eval` (both from the train checkpoint) and
`sweep` configs, and `gift` once more on a `gaussian_multiplicative` device,
and checks the SHA-256 of every CSV body (the file below its `# meta` line) and
every params checkpoint (the whole .npz file). The `multiplicative/` entries
joined the version-5 table later, recorded from unchanged version-5 results,
so that multiplicative device noise is pinned too.

The gift and eval calls score 300 points x 8 = 2,400 device rows (three blocks
of up to 128 points) and estimate over 2,000 rows (two Monte Carlo blocks), so
the block plan shows in the digests.

A digest moves whenever a result does. That is meant to happen only together
with a stream-version bump, which adds a new table here. Version 6 moved the
training stream, so every body downstream of a checkpoint moved with it; gift
and eval bodies from one fixed checkpoint are those of version 5. Version 7 capped
each block's draw at BLOCK_BYTES, which moves the block plan only above 256 noise
values per row, so its desk_small table equals version 6's; WIDE_DIGESTS pins a
tiny shallow_mnist `gift` (training, a 20 x 100 estimate and a 128 x 8 line
search, each over several blocks) whose bodies did move. The values were
recorded with numpy 2.4 on x86-64 with OpenBLAS; another numpy, BLAS library
or CPU kernel may round a matrix product differently in the last bit and so
move the digests without any change to this code. On such a platform this test
fails and says which file moved and under which BLAS set-up it ran; it is not
made tolerant of that.
"""

import hashlib
import os

from giftnn import device as device_module
from giftnn.cli import blas_setup, main
from giftnn.model import STREAM_VERSION

SETS = [
    "arch.preset=desk_small",
    "data.n_train=512",
    "data.n_test=300",
    "data.seed=3",
    "train.epochs=2",
    "gift.k1=300",
    "gift.k2=8",
    "gift.max_steps=3",
    "gift.est_k1=20",
    "gift.est_k2=100",
    "sweep.s0_grid=[0.1,0.2]",
    "sweep.st_grid=[0.2]",
    'sweep.families=["gaussian_additive","laplace"]',
    "seeds=[0,1]",
]

DIGESTS = {
    4: {
        "eval/eval.csv": "afbbf6ab09e5e4d8ea586288391993b948e27c7868003e2b6fe0d7e5a4be4ba1",
        "gift/gift_summary.csv": "17bc07eeaf71a73fe52e0535cc79c7802ef983a6096b9e20e5e613688b8241c6",
        "gift/seed_0/params_final.npz": "a28c508f97d5af1dae3f098db9918340b2ca9da658151efb556c83d49bef8d97",
        "gift/seed_1/params_final.npz": "bbf737c371167b461f03a7a230a4051046c240d29ba9326e18a4feb41bdd56b4",
        "sweep/sweep_aggregate.csv": "b8931ee6b46f693d0a41dc90d14a7d0a26a277581004caf1a64b098025a0b83c",
        "sweep/sweep_rows.csv": "0dcdb04da9bc4a8e5bbd6e9bccc02c902cf51350ba3b8beac3e26b5194c1db90",
        "train/seed_0/params.npz": "a1031dd1240ce2678f7bd4ac7b84a1646307d46133ca5372a9487ce7861c9d99",
        "train/seed_0/train_log.csv": "87cea1d23d670bc7d3b3090b3ad025f9d5e066ae7d0ade3020185331663ce056",
        "train/seed_1/params.npz": "2af2e74980ccd6bd3e07a8e2f8da009f9115a55e9743b058e67f5364b942476b",
        "train/seed_1/train_log.csv": "6f3e378eeec77d65b43205cf793bcd71d4744c6c8579415adac98c742d71a121",
    },
    5: {
        "eval/eval.csv": "3037794cb2f3e263c7f41e6c08995a885f822e6e155a3de4bddfe0af1fb68a3b",
        "gift/gift_summary.csv": "dfec0d4ce52d2c69adeab25001635627c63713184741133eaba1bed8c5c4d336",
        "gift/seed_0/params_final.npz": "a28c508f97d5af1dae3f098db9918340b2ca9da658151efb556c83d49bef8d97",
        "gift/seed_1/params_final.npz": "bbf737c371167b461f03a7a230a4051046c240d29ba9326e18a4feb41bdd56b4",
        "multiplicative/gift/gift_summary.csv": "09c8331911c3b1551d101496864b59bf8da66a75e1ca4ae80680747931e7835f",
        "multiplicative/gift/seed_0/params_final.npz": "a28c508f97d5af1dae3f098db9918340b2ca9da658151efb556c83d49bef8d97",
        "multiplicative/gift/seed_1/params_final.npz": "bbf737c371167b461f03a7a230a4051046c240d29ba9326e18a4feb41bdd56b4",
        "sweep/sweep_aggregate.csv": "08ee43f3738e3c4331df0f24d676d2ce5e988610af1cfb354e121586a9d88015",
        "sweep/sweep_rows.csv": "25a376589884b7807c5fcfacecaee40e5e6f977b3dffa83a8b64f95255064fe6",
        "train/seed_0/params.npz": "a1031dd1240ce2678f7bd4ac7b84a1646307d46133ca5372a9487ce7861c9d99",
        "train/seed_0/train_log.csv": "87cea1d23d670bc7d3b3090b3ad025f9d5e066ae7d0ade3020185331663ce056",
        "train/seed_1/params.npz": "2af2e74980ccd6bd3e07a8e2f8da009f9115a55e9743b058e67f5364b942476b",
        "train/seed_1/train_log.csv": "6f3e378eeec77d65b43205cf793bcd71d4744c6c8579415adac98c742d71a121",
    },
    6: {
        "eval/eval.csv": "eab32f76fca3fdd0f6b1c619d3bc4ffb15a8b72b0e96e9bb71c2ce982995545d",
        "gift/gift_summary.csv": "3313b9e695082c0cfba07e1ffc948c758c3dee8ec26f6a1e229b41f94244bedf",
        "gift/seed_0/params_final.npz": "684b4970df4e96176b034fcdc56afa573918002fd7266ffb41f11908c45d7135",
        "gift/seed_1/params_final.npz": "f9a9853f2a67ee7e670d7116ac9d4a476def99657cc782d0035ba19018afcd16",
        "multiplicative/gift/gift_summary.csv": "5f1ae48e74e1b0d83512cd776258c70cec6078884ad3ccec51225d0e0c619a26",
        "multiplicative/gift/seed_0/params_final.npz": "f3592847a58f580986c90094e456f58eeaf009b8b7df832b05679ee6608291bc",
        "multiplicative/gift/seed_1/params_final.npz": "f9a9853f2a67ee7e670d7116ac9d4a476def99657cc782d0035ba19018afcd16",
        "sweep/sweep_aggregate.csv": "d1a22dddd9d5e149b0a6b301cd51b239ae50347f084fc1414dbb699d5627e838",
        "sweep/sweep_rows.csv": "5528f47eea752a5c05090476e16c1f2bffd25002859a60fb5db9281943fa3460",
        "train/seed_0/params.npz": "f3592847a58f580986c90094e456f58eeaf009b8b7df832b05679ee6608291bc",
        "train/seed_0/train_log.csv": "f96bf4fe8c5531e215df845c65ae1981ae16565d3109c390558bee5e551bade1",
        "train/seed_1/params.npz": "6ef345042fd450d2a7cefbee623e7f5406d3cce1d9ab080a9e1e6f54d0eb81d0",
        "train/seed_1/train_log.csv": "ce85c42f1841ef82d40ef642e5d36e07128d8d00fcb60c9b2d61eee9556678eb",
    },
    7: {
        "eval/eval.csv": "eab32f76fca3fdd0f6b1c619d3bc4ffb15a8b72b0e96e9bb71c2ce982995545d",
        "gift/gift_summary.csv": "3313b9e695082c0cfba07e1ffc948c758c3dee8ec26f6a1e229b41f94244bedf",
        "gift/seed_0/params_final.npz": "684b4970df4e96176b034fcdc56afa573918002fd7266ffb41f11908c45d7135",
        "gift/seed_1/params_final.npz": "f9a9853f2a67ee7e670d7116ac9d4a476def99657cc782d0035ba19018afcd16",
        "multiplicative/gift/gift_summary.csv": "5f1ae48e74e1b0d83512cd776258c70cec6078884ad3ccec51225d0e0c619a26",
        "multiplicative/gift/seed_0/params_final.npz": "f3592847a58f580986c90094e456f58eeaf009b8b7df832b05679ee6608291bc",
        "multiplicative/gift/seed_1/params_final.npz": "f9a9853f2a67ee7e670d7116ac9d4a476def99657cc782d0035ba19018afcd16",
        "sweep/sweep_aggregate.csv": "d1a22dddd9d5e149b0a6b301cd51b239ae50347f084fc1414dbb699d5627e838",
        "sweep/sweep_rows.csv": "5528f47eea752a5c05090476e16c1f2bffd25002859a60fb5db9281943fa3460",
        "train/seed_0/params.npz": "f3592847a58f580986c90094e456f58eeaf009b8b7df832b05679ee6608291bc",
        "train/seed_0/train_log.csv": "f96bf4fe8c5531e215df845c65ae1981ae16565d3109c390558bee5e551bade1",
        "train/seed_1/params.npz": "6ef345042fd450d2a7cefbee623e7f5406d3cce1d9ab080a9e1e6f54d0eb81d0",
        "train/seed_1/train_log.csv": "ce85c42f1841ef82d40ef642e5d36e07128d8d00fcb60c9b2d61eee9556678eb",
    },
}


# The BLAS set-up every pin above passes under, as cli.blas_setup() reports it, on a 2-core x86-64 host whose
# OpenBLAS picks its AVX-512 (SkylakeX) kernels; unset thread counts mean 2 threads there. The wide pin moves
# under OPENBLAS_NUM_THREADS=1, and every pin under a non-AVX-512 kernel.
PINNED_BLAS_SETUP = {
    "library": "scipy-openblas 0.3.31.188.0",
    "OPENBLAS_NUM_THREADS": None,
    "OMP_NUM_THREADS": None,
    "MKL_NUM_THREADS": None,
}


def blas_setups() -> str:
    """The set-up the pins pass under and the one this run used, for a failure message."""
    return f"pinned under BLAS set-up {PINNED_BLAS_SETUP}, ran under {blas_setup()}"


WIDE_SETS = [
    "arch.preset=shallow_mnist",
    "data.n_train=256",
    "data.n_test=128",
    "train.epochs=1",
    "gift.k1=128",
    "gift.k2=8",
    "gift.max_steps=1",
    "gift.est_k1=20",
    "gift.est_k2=100",
    "seeds=[0]",
]

WIDE_DIGESTS = {
    6: {
        "gift/gift_summary.csv": "9571a66073294881a4a83c224dc7058b0c2b0f2ae50eb2065d0cbd398278fd0f",
        "gift/seed_0/params_final.npz": "cd0e9844294ebe04b99af3567ddcce623cef5b5e7413b54a8b81e2dc3e2bf596",
    },
    7: {
        "gift/gift_summary.csv": "e34e00c03c1cec0998ec78ecb80208e634c2cd84b29cf717aa1dda676ed36653",
        "gift/seed_0/params_final.npz": "57cdfbc41ceb8f88f7ab6405ccd2e6c13768e32036cd18a47f71a4eb75ca5226",
    },
}


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        first = f.readline()
        rest = f.read()
    if path.endswith(".csv"):
        assert first.startswith(b"# meta "), path
        body = rest
    else:
        body = first + rest
    return hashlib.sha256(body).hexdigest()


def written_digests(out) -> dict:
    """{relative path: digest} of every CSV and .npz written under out."""
    digests = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name.endswith((".csv", ".npz")):
                path = os.path.join(root, name)
                digests[os.path.relpath(path, out).replace(os.sep, "/")] = file_digest(path)
    return digests


def run_digests(out) -> dict:
    """Run the four commands into out, and gift once more on a multiplicative device into
    out/multiplicative; the digests of what they wrote."""
    argv = lambda cmd, *extra, to=str(out): [cmd, "--out", to, *extra] + [a for s in SETS for a in ("--set", s)]
    checkpoint = ["--checkpoint", os.path.join(str(out), "train")]
    multiplicative = argv("gift", *checkpoint, "--set", "device.family=gaussian_multiplicative",
                          to=os.path.join(str(out), "multiplicative"))
    for args in (argv("train"), argv("gift", *checkpoint), argv("eval", *checkpoint), argv("sweep"), multiplicative):
        assert main(args) == 0, args[0]
    return written_digests(out)


def test_bodies_match_the_pinned_digests(tmp_path, capsys):
    assert STREAM_VERSION in DIGESTS, f"no pinned digests for stream version {STREAM_VERSION}"
    want = DIGESTS[STREAM_VERSION]
    got = run_digests(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(want), f"written files {sorted(got)}, pinned {sorted(want)}; {blas_setups()}"
    moved = [f"{name}: got {got[name]}, pinned {want[name]}" for name in sorted(want) if got[name] != want[name]]
    assert not moved, "digests moved (stream version %d; %s):\n%s" % (STREAM_VERSION, blas_setups(), "\n".join(moved))


def test_replay_budget_moves_no_digest(tmp_path, monkeypatch, capsys):
    # with no replay every call draws its blocks afresh; the budget trades CPU for memory only
    monkeypatch.setattr(device_module, "REPLAY_BYTES", 0)
    got = run_digests(tmp_path)
    capsys.readouterr()
    assert got == DIGESTS[STREAM_VERSION], blas_setups()


def test_version_5_kept_the_train_digests():
    # version 5 changed device noise only: training makes no device call
    train = sorted(name for name in DIGESTS[4] if name.startswith("train/"))
    assert train and all(DIGESTS[5][name] == DIGESTS[4][name] for name in train)


def test_version_7_kept_the_desk_small_digests():
    # version 7 moved the block plan only above 256 noise values per row; desk_small has 116
    assert DIGESTS[7] == DIGESTS[6]


def test_wide_gift_bodies_match_the_pinned_digests(tmp_path, capsys):
    assert main(["gift", "--out", str(tmp_path)] + [a for s in WIDE_SETS for a in ("--set", s)]) == 0
    capsys.readouterr()
    got = written_digests(tmp_path)
    assert got == WIDE_DIGESTS[STREAM_VERSION], f"got {got}, pinned {WIDE_DIGESTS[STREAM_VERSION]}; {blas_setups()}"
