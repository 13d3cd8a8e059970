"""Canary for the numpy random layers every output rests on.

NEP 19 keeps bit-generator streams stable across numpy releases, but lets
``Generator`` methods change their algorithms between feature releases.
Instances come from ``Generator.standard_normal``, the QPE sampler's
uniforms from ``Generator.random`` over PCG64's raw words, and every seed
from ``SeedSequence``.  Each pin below fails with the name of the layer that
moved, so a numpy upgrade that changes outputs names its cause instead of
failing dozens of golden cells.
"""

import hashlib

import numpy as np
import pytest

from fidest.estimation import _repetition_streams

DRAWS = 1000
SEEDS = {
    "0": 0,
    "1": 1,
    "2^62+5": 2**62 + 5,
    # the uint32 [w0, w1, rep] entropy of repetition 3 under seed 2^62 + 5
    "[5, 2^30, 3]": np.array([5, 1 << 30, 3], dtype=np.uint32),
}
LAYERS = {
    "PCG64.random_raw (the bit generator's stream)": lambda s: np.random.PCG64(s).random_raw(DRAWS),
    "Generator.random (the QPE sampler's uniforms)": lambda s: np.random.default_rng(s).random(DRAWS),
    "Generator.standard_normal (instance synthesis)": lambda s: np.random.default_rng(s).standard_normal(DRAWS),
    "SeedSequence.generate_state (every seed)": lambda s: np.random.SeedSequence(s).generate_state(4, np.uint64),
}
SHA256 = {
    "PCG64.random_raw (the bit generator's stream)": {
        "0": "37eebb6c5d32acb227b3de8744b218894657b469d744f6e02c57f43dccb6d0aa",
        "1": "31bd4e2883afa6c9d4b473762138ba78e2e015089470432079223002002ec7f8",
        "2^62+5": "dd167d7fa7a2af90f0c7592128554e00cbdb7d30ea10f4731756c2aeddda7dae",
        "[5, 2^30, 3]": "848f188351c532fc78fd6599ce72fd76b2df969dfe2566a108d633a870008b0b",
    },
    "Generator.random (the QPE sampler's uniforms)": {
        "0": "7eaf3168ef8150e60745193d9afcd72c6b1218c71791c4283214b4feb2108ddd",
        "1": "9ae6875ee2d535ad2a4780960ed443f7101080feebda6975a02d678d7914e6c1",
        "2^62+5": "2e0584987192bcf8df74c88851bf9596b3c89bef04ba77d1461a7be26e80b7b0",
        "[5, 2^30, 3]": "3944588cff09aa8fb2694a4e0680176e5eb602779be658b2b960040b47540525",
    },
    "Generator.standard_normal (instance synthesis)": {
        "0": "cc0b03e91cf55ab725aaa2be63067b7bc76f08787209974cb1e275aad78b4d8e",
        "1": "56d130ac43197a3c3e5ea5b167b8f556a86775073667667eaf3eba5e9b7c7916",
        "2^62+5": "7fa03d6cef355d738ea2f6f9cf3fad37cfb9dec2e20d8a7ddfdf754b0f7f7acb",
        "[5, 2^30, 3]": "9f6e35217d4bd1cdb02ce91aa440b764850e6ea5a44471323a6ee4e71da6a2b0",
    },
    "SeedSequence.generate_state (every seed)": {
        "0": "d1dc8abad612fe44a7248fafc370e13573283627771ab88c4396a36d417c9175",
        "1": "8e2e9dcf82c11b2706379fb2fef9b9caba638d653483509d46094f8eea04f6fb",
        "2^62+5": "509c1a227727cf2a5549d6515359699979f0db9aa0cfdfd16d4a241d979c29be",
        "[5, 2^30, 3]": "6bc4d00615347f281a8119aaf6a87d1c55e158b8b30f18833568e8b346eb824c",
    },
}


@pytest.mark.parametrize("seed", list(SEEDS))
@pytest.mark.parametrize("layer", list(LAYERS))
def test_layer_is_pinned(layer, seed):
    values = LAYERS[layer](SEEDS[seed])
    digest = hashlib.sha256(values.astype(values.dtype.newbyteorder("<")).tobytes()).hexdigest()
    assert digest == SHA256[layer][seed], f"numpy layer moved: {layer}, seed {seed}"


@pytest.mark.parametrize("seed", list(SEEDS))
def test_uniforms_are_the_top_53_raw_bits(seed):
    raw = np.random.PCG64(SEEDS[seed]).random_raw(DRAWS)
    uniforms = np.random.default_rng(SEEDS[seed]).random(DRAWS)
    assert np.array_equal(uniforms, (raw >> 11) * 2.0**-53), (
        "numpy layer moved: Generator.random no longer maps a PCG64 word w to (w >> 11) * 2^-53"
    )


def test_canary_entropy_is_the_streams_entropy():
    rng, _ = _repetition_streams(2**62 + 5)[3]
    assert np.array_equal(rng.bit_generator.seed_seq.entropy, SEEDS["[5, 2^30, 3]"]), (
        "fidest layer moved: _repetition_streams no longer seeds from [w0, w1, rep]"
    )
