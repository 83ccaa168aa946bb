"""Bit-identity of the point structure every analysis layer reads.

The sha256 digests below were recorded before each piece stated its own
point class (``Piece.cls``), when ``validate``, ``classify_point``,
``lambda_sets``, ``build_graph`` and the symmetry components each worked
the class out on their own.  One digest covers one spec:

* the ``validate`` violations, code, where and message;
* the ``lambda_sets`` intervals;
* ``classify_point`` at an interior point of every piece and at every
  singular point;
* the ``build_graph`` atoms and its sorted edges;
* ``check_symmetrizable(...).as_dict()``, and the canonical measure when
  the process is symmetrizable after killing;

with floats written as ``float.hex`` and a call that raises recorded by
its exception type and message.  The specs are the built-in examples,
the twenty random specs of c03, four fixtures and a closedness grid:
every point class between every pair of flanking materials, valid or
not.
"""

import hashlib
import itertools
import json
from dataclasses import astuple

import pytest

from conftest import random_spec_doc, spec_from
from shuntline import (build_graph, canonical_measure, check_symmetrizable,
                       classify_point, get_example, lambda_sets, list_examples,
                       parse_spec, validate)

MATERIALS = {
    "regular": {"kind": "regular_interval", "scale": "x",
                "speed": {"density": "2"}},
    "trap": {"kind": "trap_segment"},
    "left": {"kind": "shunt_segment", "direction": "left"},
    "right": {"kind": "shunt_segment", "direction": "right"},
}
CLASSES = ("trap", "left_shunt", "right_shunt")

# the partial-reach segment of test_graph.py and its mirror image, and a
# shunt into a regular interval that never approaches it from either side
FIXTURES = {
    "partial-reach": [
        {"kind": "shunt_segment", "a": "-inf", "b": "0",
         "direction": "right", "reach": "partial:-1"},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "x/2", "speed": {"density": "2"}}],
    "partial-reach-left": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "x/2", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "left_shunt"},
        {"kind": "shunt_segment", "a": "0", "b": "inf",
         "direction": "left", "reach": "partial:1"}],
    "entrance-a": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "right_shunt"},
        {"kind": "regular_interval", "a": "0", "b": "inf",
         "scale": "-1/x", "speed": {"density": "2"}}],
    "entrance-b": [
        {"kind": "regular_interval", "a": "-inf", "b": "0",
         "scale": "-1/x", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "0", "class": "left_shunt"},
        {"kind": "trap_segment", "a": "0", "b": "inf"}],
}


def grid_spec(left, cls, right):
    return spec_from([{**MATERIALS[left], "a": "-inf", "b": "0"},
                      {"kind": "singular_point", "x": "0", "class": cls},
                      {**MATERIALS[right], "a": "0", "b": "inf"}],
                     name=f"grid-{left}-{cls}-{right}")


def case_spec(case):
    family, _, rest = case.partition(":")
    if family == "example":
        return get_example(rest)
    if family == "random":
        return parse_spec(random_spec_doc(int(rest)))
    if family == "fixture":
        return spec_from(FIXTURES[rest], name=rest)
    return grid_spec(*rest.split("/"))


CASES = ([f"example:{n}" for n in list_examples()]
         + [f"random:{seed}" for seed in range(20)]
         + [f"fixture:{name}" for name in FIXTURES]
         + [f"grid:{l}/{c}/{r}" for l, c, r in
            itertools.product(MATERIALS, CLASSES, MATERIALS)])


def _plain(v):
    """v with every float written as float.hex, for a JSON dump."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _call(fn, *args):
    try:
        return _plain(fn(*args))
    except Exception as exc:  # a refusal is part of the structure
        return f"{type(exc).__name__}: {exc}"


def structure(spec):
    points = [p.x if p.is_point else p.interior_point() for p in spec.pieces]
    out = {
        "violations": [astuple(v) for v in validate(spec).violations],
        "lambda_sets": _call(lambda s: {k: v.intervals for k, v in
                                        lambda_sets(s).as_dict().items()}, spec),
        "classes": [[x, _call(classify_point, spec, x)] for x in points],
        "graph": _call(lambda s: [[astuple(a) for a in build_graph(s).atoms],
                                  sorted(build_graph(s).edges)], spec),
        "symmetry": _call(lambda s: check_symmetrizable(s).as_dict(), spec),
    }
    if isinstance(out["symmetry"], dict) and out["symmetry"]["killed_symmetrizable"]:
        out["measure"] = _call(lambda s: canonical_measure(s).as_dict(), spec)
    return json.dumps(_plain(out), sort_keys=True)


def structure_digest(case):
    return hashlib.sha256(structure(case_spec(case)).encode()).hexdigest()


DIGESTS = {
    "example:bm":
        "5f55dc919a881750f666034c491754086edce0f257f3ef7662241a9d716ac873",
    "example:drift":
        "d50e4cfc81d53fcc5a0a34014012b7a308431a9b75410b4cb4cd29b4baa390d6",
    "example:bessel-glue":
        "c04eb191fb6e44bea17fba3b60518ba730866b9606e63d8826af7f0f9636bfda",
    "example:exa1":
        "c9cb62e5d60244f698da8827df2f32fcbeb58ea1f71e66c0f238d2ab1395ca99",
    "example:exa2":
        "0d21bde7472a9e7d130b0c0aaa4037198df4a671d4a656acc43311b95b4b8f7c",
    "example:absorb-reflect":
        "812f8620b0fdc083aec3f31f480860d0c7c0f0729a1467f2e929cba37e812523",
    "example:split-bm":
        "ff2c29ada18c6fb9f4fa67eb19b186a2fea9e727a96d8ba9d8705cd3864f04a3",
    "example:nonradon":
        "c0ef5b0aad426423bc1cb16857c0d69bf4e411eaeda940645b9358522f7cc381",
    "random:0":
        "a0c4952f6a0a78c1341acd8439ba9dd3998cc2dda4aff06e3976b9c1cbe75996",
    "random:1":
        "8988c4ce2805dcd7118e7ee5f4a4c7feb40d84b329270820c7705232ec544a43",
    "random:2":
        "f4680ab5fa7cf70753128e083bdc86f514bc44a47e45fb0f2dc24234e3928bd8",
    "random:3":
        "6637c22b27391712ba69d0b6a530bca43bdd7686c5d8485ea66508df67c9b351",
    "random:4":
        "cdb1fd1c9fef5bd78aaa69e8da84c64bb216cf5c18b77586ad0a4653555ee986",
    "random:5":
        "659219798a2cdf8a78d3c2387b7b50433015905f6a7d9bdaf7ff0124df623492",
    "random:6":
        "77808d6bd9eeb657af2158794da26c56f6ec6583ec277ab6e9e1d5252bd94d41",
    "random:7":
        "57daa83c8d8432a8fb135127b378d9bcb8ba9121d59507d6de885811d3a46b93",
    "random:8":
        "1f68743c45b67b4c27e640b62fcdc03947aa1f1c9b9177eb71d07674c29de40f",
    "random:9":
        "f49e11d8fde8f2175b43846451be696754206691338fc008420672906ec00e28",
    "random:10":
        "574e07f9c956a8685e601fa36476f6813d150a6f8160a428f0df89e40ba06d54",
    "random:11":
        "6c299173901a6acf8d3213d6bfc9025ac88728038575526f5999c1b8cfc6ef5c",
    "random:12":
        "38bbf57a32c33a02d90e7ffc8ccdaae65a15d9c9c9d24549de87ba5e00e3ce4e",
    "random:13":
        "2e8ae2ea0fa076623ec2ae99e2a2f03cd3a312ece43fb57bb898d0733df27ec3",
    "random:14":
        "1a71146e79912bde3767fafe0813fab729df6249d7ca5a545c2af7b199bad41c",
    "random:15":
        "19c76140e774cbe49b2790dbf79a3eace6e567670b38754adf3daa06a5749d05",
    "random:16":
        "35af4c912fc0fd54bec881196db589335b94635e5dbf0ad38c5e283b5647d798",
    "random:17":
        "57e23d8831bbc91f3bf7e80e623218b7173a8785875ba9377fffe02cbdcdc820",
    "random:18":
        "0b15abb77a8d5625a34f8178a08e2cf0a035423b10157ef3aefbe486c9b29db4",
    "random:19":
        "430dc65322b2437c25b8ae4f7b885c325e5dc0059d30601ddc17c8a5f724d138",
    "fixture:partial-reach":
        "23213268ab768778a7de7d5fbe5e2dc52a2be772f4c4c13989ce3cde40105055",
    "fixture:partial-reach-left":
        "91b94e0197593e387f4c842b42dbd017ba1c6b08f7c4b548657c32c2cf6b07a7",
    "fixture:entrance-a":
        "093f58a522f5e3e1c083a8a6dc9e2d997ca3fe4f97852a855b641f418e3805ff",
    "fixture:entrance-b":
        "38e2cbafba86798a371801a48bcf89cf9840a97a21048783cd3e7e770f074bc4",
    "grid:regular/trap/regular":
        "f3ae60b592d6ba499ee5997ba542aca9efea2fb1b1e0465c24781e84239eab39",
    "grid:regular/trap/trap":
        "30c726d625330b7ed5f0c15f01e6e6ab0a558e5ec7de667aa40f2ad89712015d",
    "grid:regular/trap/left":
        "c6ac68d7fa1af2d1b8880b0a21c04413eae0486feada501ba9bc0f004b52e6db",
    "grid:regular/trap/right":
        "f22350e7b91cbfaebdca46be044e9c1324c30852bc25593080efb166177b8296",
    "grid:regular/left_shunt/regular":
        "3ae7e031e5e1aa45690a13526a9ca586172bd3a1a911d4a94a9514bc4af16ea2",
    "grid:regular/left_shunt/trap":
        "9a8c301454073a414f8c1ac6933e3d3ba36bab29be816d1cc30b10b49814e61c",
    "grid:regular/left_shunt/left":
        "22d0ee282c95108bcd866a0c9b1a15d05428cf06b1bdd84bfe60d9161b69e6ab",
    "grid:regular/left_shunt/right":
        "49bb3720af04bd03dea19d31a69a66e352611a77828f9ad27e560d5fadc88903",
    "grid:regular/right_shunt/regular":
        "c9cb62e5d60244f698da8827df2f32fcbeb58ea1f71e66c0f238d2ab1395ca99",
    "grid:regular/right_shunt/trap":
        "f56f81ee3f00b0444716438f806d508f1b728ef6a32f4ad0da9ddf21f596b493",
    "grid:regular/right_shunt/left":
        "b4ab7a552688eaad6b38981a099b2a51cf0faff885209348783b744a09e4304d",
    "grid:regular/right_shunt/right":
        "175793dfa6aad5c24d07787d668e764be18c29a580257fc046967da2b6d4eeef",
    "grid:trap/trap/regular":
        "6b25cad60824e76819ef083b1b90aca8fb62d85d245f601cf8507445554964f5",
    "grid:trap/trap/trap":
        "cdb88d50d46ab0c2815acc9e65aeff9168d7f4244a2371a5bedfb460cb0c751a",
    "grid:trap/trap/left":
        "32bbbff68a9a93a58cb3a87378cfde4c007f66c0c0369e4bd5eb930e9d87c571",
    "grid:trap/trap/right":
        "c1e6236e2a0e92b82cab575bf64c5dc27cfea8f6f489b3f004457077fc3cac56",
    "grid:trap/left_shunt/regular":
        "4581deddd6859fa2c0be3f344009e5a10a457ab2d161225e6d21576679b5d884",
    "grid:trap/left_shunt/trap":
        "54837a249545f36a84f6ebbf6457770b9784ac62b8f79ad340ab9550c1abb32f",
    "grid:trap/left_shunt/left":
        "f749dcdfebcea847d3c8e8c89184414675ab6589d3a0872404fbf2bfce445b97",
    "grid:trap/left_shunt/right":
        "eef4d0b479d167aa81e000d6491cb122d6cc00d6013b5a66adf1a7bc0c5a9b1c",
    "grid:trap/right_shunt/regular":
        "6209545145a40bc0c9583435271029977de57e02effb013708e22999a5589f83",
    "grid:trap/right_shunt/trap":
        "4e94cf370eb3d0734557690013598a48348d7a11c4f8c2e7d1b0e7cc5ad49b1a",
    "grid:trap/right_shunt/left":
        "cae356dfe9f6c0b8d0f07128be7abb429d6eef1a15a5c97e8746b12cc4b970e9",
    "grid:trap/right_shunt/right":
        "3a4152e8a009c3894e3bcf824c2dd71db4612d58681cc6ca01b6cc719592576f",
    "grid:left/trap/regular":
        "945e770d4db1cd9dc9a2a8502fdb6c847cd4ad22845a7ffcbe3272a4f011cec6",
    "grid:left/trap/trap":
        "4bb28cd505e83807817d0f58bded66dc2b98239bd6585322dc3cc1cd9243c478",
    "grid:left/trap/left":
        "5357d380f80e1b5d1b3b56a8da867ac66730fc4550839ab349a8a39fe43a7d95",
    "grid:left/trap/right":
        "0ede4662e3169d2f25eb00452a077cfc61b4de398dcb73b2db323c4c0d72a122",
    "grid:left/left_shunt/regular":
        "49dad22d2019a9bc330ec8492a2479c627c44e9a0b9e3c0bf146241d504382aa",
    "grid:left/left_shunt/trap":
        "55bdf6f4474c804a140abb99030c1ecc9eea3759a62676a8e57c30cef0349ca3",
    "grid:left/left_shunt/left":
        "25fef253925efade5bdcd5dd197792259045e515a59bfdec14a040036e27f6af",
    "grid:left/left_shunt/right":
        "12d1b9189d1b07af60ce350fd8de7fb07162a32609cf0b095a6dd278418c4b69",
    "grid:left/right_shunt/regular":
        "ced6deb8abaa6eb21e5bc358a37394ea9cafb1d0144328cfe1793779fb3d8664",
    "grid:left/right_shunt/trap":
        "8546cbfaeacd1c05474089aa38a083106f0cede42075b5e91503fe08df460c4a",
    "grid:left/right_shunt/left":
        "b64efde1862b9510ec42045a5577cf67ad38ca8f68ee640b5e7d9c5c0e4dc61a",
    "grid:left/right_shunt/right":
        "5b5b97419557aa150faa8c1231c030e46138e9ab287f511d3d65dd75489cc98f",
    "grid:right/trap/regular":
        "19aef85ef694369613f8638f745319ff77ba9fc3a14d4af095385061e79ed21a",
    "grid:right/trap/trap":
        "fdad3eb17f2e23fdb363b5bae113271caf4422240d9bd83c331c657718fcce48",
    "grid:right/trap/left":
        "048e29b43f4fc8fb6e54da02b0616b4aa27c62edc239cc659e13ec822839e008",
    "grid:right/trap/right":
        "c86138cff837d5ff6df6e690233916bc00dd3dfba019d2f27060503dc408a4b8",
    "grid:right/left_shunt/regular":
        "1b18eb6e75c4ac9b37061de72614c700ba49c79cad091bbe7a0ddd9ce5a00968",
    "grid:right/left_shunt/trap":
        "a883b788d013c63d1f7b8b7c97519f34d240e1e5db653fcd289d1c0e081de056",
    "grid:right/left_shunt/left":
        "c77bff22c8924b4c12a2e40e5100f76232e57729cddcc4a56102ebe8c4592c9b",
    "grid:right/left_shunt/right":
        "df4773ce961f2c518c06a96e87de9a0c636f081a2f66a9dc1b3f196cc738f9ab",
    "grid:right/right_shunt/regular":
        "41b5cf6fe3e15bf71ac143a20b67881798dc852afd19a85e04d8b22812bc0446",
    "grid:right/right_shunt/trap":
        "0a97d57fc26e36c12fedbbc8603bed10465cf1421d64ea625be41614124b13c3",
    "grid:right/right_shunt/left":
        "1079fa5cc0cfd58df0e147b92c5059f451c4489d2f04d0fb62a0f29eff25e26a",
    "grid:right/right_shunt/right":
        "6dfbcc7a20b63e656f1771ed74193c0e9a87d8622e8fc03ec5d535b59cd9064f",
}

def test_every_case_is_pinned():
    assert len(CASES) == 8 + 20 + 4 + 48
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_structure_digest(case):
    assert structure_digest(case) == DIGESTS[case]
