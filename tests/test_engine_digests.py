"""Bit-identity of the vector engine and the defect estimator.

The sha256 digests below were recorded from ``run()`` before the engine
was reorganised into a single compacted replication loop.  Replication r
always reads the counter stream (seed, r, step), so any reorganisation of
the loop must reproduce every output array bit for bit.  The defect
estimates were recorded at the same time, when ``f`` and ``g`` were still
called once per replication.

Exponential holding times go through ``numpy.log1p``, whose last bit may
depend on the SIMD extensions of the machine, so that one case digests
its final times rounded to 10 decimals; every other array is digested
exactly.
"""

import hashlib

import numpy as np
import pytest

from shuntline import get_example
from shuntline.simulate import build_chain, estimate_symmetry_defect, run

KEYS = ("final_node", "final_time", "status", "hit")


def _bm_starts(chain):
    # every node in turn, the terminal window edges included
    return np.arange(1500) % chain.n_nodes


CASES = {
    # 2500 replications cross the old 1024-replication chunk boundaries
    "bm-target": (("bm", (0.0, 1.0), 0.05),
                  dict(x0=0.3, target=1.0, t_max=5.0, n_rep=2500, seed=3,
                       mode="killed_at_traps")),
    "exa2-full": (("exa2", (-1.0, 2.0), 0.05),
                  dict(x0=0.5, t_max=1.0, n_rep=1200, seed=9, mode="full")),
    "exa2-killed": (("exa2", (-1.0, 2.0), 0.05),
                    dict(x0=0.5, t_max=1.0, n_rep=1200, seed=9,
                         mode="killed_at_traps")),
    "exa1-det": (("exa1", (-2.5, 2.5), 0.05),
                 dict(x0=-0.2, t_max=1.0, n_rep=1200, seed=11, mode="full")),
    "drift-det": (("drift", (-1.0, 1.0), 0.02),
                  dict(x0=0.1, t_max=1.2, n_rep=300, seed=5, mode="full")),
    "exa1-exponential": (("exa1", (-2.5, 2.5), 0.05),
                         dict(x0=0.5, target=1.5, t_max=2.0, n_rep=1200,
                              seed=13, mode="full",
                              exponential_holding=True)),
    "bm-starts": (("bm", (0.0, 1.0), 0.05),
                  dict(starts=_bm_starts, t_max=0.2, seed=17, mode="full")),
}

DIGESTS = {
    "bm-starts": {
        "final_node":
            "8ba40134258bc37b422d4f5199fedf908b896cad070c1aa9d48e455f06262118",
        "final_time":
            "101564ba56893a36b52481d57ab1521e13bf8679f969dfdb74c03d27627fbc21",
        "status":
            "67e4b838810fcaac87cc3373e6bcaa3cb43b65129f06ba7ed5d299cb2159532e",
        "hit":
            "6249da5c681dd8a542b8e38150a3026e02385d590a9dd94f4f83940fd856ee73",
    },
    "bm-target": {
        "final_node":
            "cc37402c26d0aea000e0b8288d0a9d5760f4eb69ca7f0a84ef80d80f425ff88e",
        "final_time":
            "ae11fe6dff93cd46fc647f99d922d50e3dd997406f21b5e0c0d57bb5398c833d",
        "status":
            "6737163ab5eb733e5b1d8c9b4c23b3f3407a0f7a4efa696a2ff2d06f5676f333",
        "hit":
            "795da8e1d76e2492fcb06ea5b85f00be73eb1bc6bd57baa9b32374d576505caf",
    },
    "drift-det": {
        "final_node":
            "a0ee989ed2a0a2e3626520afa4032e06144865c8c8f6357293c9f4cd2069eaf2",
        "final_time":
            "8a41d3ea29a5b23e1b310215ef9c7f3a358a61364fc16ede49a4ce5103d01f72",
        "status":
            "210d81413c5372260eaea11b1b5d291080e2a5e447252355a1d5fce755fbf6cb",
        "hit":
            "d13d4a8b3b8add19b5970157f09d00c12cbda4fed4d74d8493156523f7069b66",
    },
    "exa1-det": {
        "final_node":
            "554760bd6a079d6f37b27fa357f6c75d7a51ddbc2e2e643984833137324cf0fe",
        "final_time":
            "e437300302901af91cdf2ca23e4c0dab5ee3ce765c8d5174313cc7818eecb482",
        "status":
            "a45e6e4882e4a1def0b01792b6789817c2d56812b5a2f9310d83cf18025b17d7",
        "hit":
            "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
    },
    "exa1-exponential": {
        "final_node":
            "b27b6385775fbdc9b93b053f6a27a95d09b4af3d9999497b6112cad4247211eb",
        "final_time":
            "f8d70db22bde4bafb4fdcf012340e9b2c7cbaee67d998fe6fe9df476f22d4bf7",
        "status":
            "64bf4e7fe668627a965187e536da3baef5a3ae007bd0fd657421b3ff7bea9127",
        "hit":
            "f95e765db87cf94d4685fa895a0aa438a727aa089c109fb4cf6faf1bc7cef495",
    },
    "exa2-full": {
        "final_node":
            "f98da180f7dd0df3aa094e205edde7bdb8babbbec5c6450fb9d4ccf2e0595406",
        "final_time":
            "2dc3def14ebfbe96da56a6e62fe2892c4999bf29fb0d5b4a1b52bec798e4359d",
        "status":
            "80a8b0e21d5cc75018d0e6f4bf3aa5d100aa1464bd5364ce6f76db2c05f44779",
        "hit":
            "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
    },
    "exa2-killed": {
        "final_node":
            "f98da180f7dd0df3aa094e205edde7bdb8babbbec5c6450fb9d4ccf2e0595406",
        "final_time":
            "40acee1c6cd55242dd4dce039a4307802151c713137621c430e4f3465c9c6368",
        "status":
            "80a8b0e21d5cc75018d0e6f4bf3aa5d100aa1464bd5364ce6f76db2c05f44779",
        "hit":
            "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
    },
}


def _case_output(name):
    (example, window, h), kwargs = CASES[name]
    chain = build_chain(get_example(example), window, h)
    kwargs = dict(kwargs)
    if "starts" in kwargs:
        kwargs["starts"] = kwargs["starts"](chain)
    out = run(chain, **kwargs)
    if kwargs.get("exponential_holding"):
        out = dict(out, final_time=np.round(out["final_time"], 10))
    return out


def digests(name):
    out = _case_output(name)
    return {k: hashlib.sha256(np.ascontiguousarray(out[k]).tobytes())
            .hexdigest() for k in KEYS}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_is_bit_identical(name):
    assert digests(name) == DIGESTS[name]


# (example, window, h), f window, g window, keyword arguments, and the
# recorded (mean, sd); the means are sums of numpy arrays, so they are
# compared to 12 digits rather than bit for bit
DEFECTS = {
    "exa1-lebesgue": (("exa1", (-2.5, 2.5), 0.05), (-2.0, -1.0), (1.0, 2.0),
                      dict(t_max=1.0, n_rep=2000, seed=11, mode="full",
                           weights="lebesgue"),
                      (0.09359999996658389, 0.6638820749125223)),
    "exa2-killed": (("exa2", (-1.0, 3.0), 0.05), (0.2, 0.9), (1.5, 2.5),
                    dict(t_max=0.5, n_rep=2000, seed=12,
                         mode="killed_at_traps"),
                    (0.02029999999391509, 1.403036765342563)),
    "bm-full": (("bm", (0.0, 1.0), 0.05), (0.1, 0.4), (0.6, 0.8),
                dict(t_max=0.3, n_rep=2000, seed=13, mode="full"),
                (-0.000950000000000017, 0.3151567219332207)),
}


def _indicator(lo, hi):
    return lambda x: 1.0 if lo < x < hi else 0.0


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_defect_estimate_is_unchanged(name):
    (example, window, h), f_win, g_win, kwargs, (mean, sd) = DEFECTS[name]
    chain = build_chain(get_example(example), window, h)
    d = estimate_symmetry_defect(chain, _indicator(*f_win),
                                 _indicator(*g_win), **kwargs)
    assert d["mean"] == pytest.approx(mean, rel=1e-12, abs=1e-15)
    assert d["sd"] == pytest.approx(sd, rel=1e-12)


if __name__ == "__main__":
    # prints the DIGESTS table for the engine on the import path
    print("DIGESTS = {")
    for name in sorted(CASES):
        print(f'    "{name}": {{')
        for key, value in digests(name).items():
            print(f'        "{key}":\n            "{value}",')
        print("    },")
    print("}")
