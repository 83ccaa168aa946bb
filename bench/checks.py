"""Output checks for every benchmark operation.

Each check returns a list of failure messages; an empty list means the
operation's answer is right.  Expected values come from the acceptance
guarantees c01-c10; the tables below are plain module data, so a test
can plant a wrong value and see it counted.
"""

from __future__ import annotations

# (hunt holds, killed symmetrizable, full symmetrizable) per built-in.
# bm, drift, bessel-glue, exa1 and exa2 are the c01/c02 tables; the
# others follow the catalog descriptions.  Positive factors on scale
# and density leave all of them unchanged.
VERDICT_TABLE = {
    "bm": (True, True, True),
    "drift": (False, False, False),
    "bessel-glue": (False, False, False),
    "exa1": (True, False, False),
    "exa2": (True, True, False),
    "absorb-reflect": (True, True, False),
    "split-bm": (True, True, True),
    "nonradon": (True, True, True),
}
# c01 witness kinds for the built-ins where the revisit property fails.
WITNESS_TABLE = {"drift": ["r1"], "bessel-glue": ["r2"]}
# c10: is the canonical measure locally finite (regular form)?
REGULAR_FORM_TABLE = {"bm": True, "split-bm": True, "nonradon": False}

HITTING_HALF_WIDTHS = 3.0   # c05 rule
DEFECT_HALF_WIDTHS = 4.0


def c03_identity(outcome, hunt_holds, literal_ap, at):
    """killed <=> hunt holds and no literal two-sided shunt point;
    full <=> killed and no trap reached from outside."""
    bad = []
    killed = hunt_holds and not literal_ap
    if outcome["killed"] is not killed:
        bad.append(f"c03: killed={outcome['killed']} but hunt={hunt_holds}, "
                   f"literal lambda_ap={list(literal_ap)}")
    if outcome["full"] is not (outcome["killed"] and not at):
        bad.append(f"c03: full={outcome['full']} but killed={outcome['killed']}, "
                   f"lambda_at={list(at)}")
    return bad


def verdict_outcome(item, outcome):
    """Family-specific checks on one ``verdicts`` outcome."""
    if not outcome["valid"]:
        return ["validation reported violations"]
    if item["family"] == "borderline":
        if not outcome["undetermined"]:
            return ["borderline spec was decided; expected undetermined"]
        return []
    if outcome["undetermined"]:
        return [f"refused as undetermined: {outcome['message']}"]
    bad = []
    if outcome["endpoints"] != 2 * outcome["n_regular"]:
        bad.append(f"profile has {outcome['endpoints']} endpoints for "
                   f"{outcome['n_regular']} regular pieces")
    if outcome["full"] and outcome["adapted"] is not True:
        bad.append("full symmetrizable spec is not adapted")
    if item["family"] == "builtin":
        got = (outcome["hunt"], outcome["killed"], outcome["full"])
        name = item["builtin"]
        want = VERDICT_TABLE[name]
        if got != want:
            bad.append(f"{name}: verdicts {got}, expected {want}")
        if name in WITNESS_TABLE and \
                outcome["witnesses"] != WITNESS_TABLE[name]:
            bad.append(f"{name}: witnesses {outcome['witnesses']}, "
                       f"expected {WITNESS_TABLE[name]}")
        if name in REGULAR_FORM_TABLE and \
                outcome["regular_form"] is not REGULAR_FORM_TABLE[name]:
            bad.append(f"{name}: regular form {outcome['regular_form']}, "
                       f"expected {REGULAR_FORM_TABLE[name]}")
    return bad


def hitting(call, est, expected):
    """c05 rule on forward calls; no hit at all on the reverse call."""
    bad = []
    if sum(est["status_counts"].values()) != call["n_rep"]:
        bad.append(f"{call['tag']}: status counts do not add up to n_rep")
    if call["reverse"]:
        if est["hits"] != 0 or est["estimate"] != 0.0:
            bad.append(f"{call['tag']}: {est['hits']} reverse hits, expected 0")
        return bad
    half = (est["ci_high"] - est["ci_low"]) / 2.0
    if not abs(est["estimate"] - expected) <= HITTING_HALF_WIDTHS * half:
        bad.append(f"{call['tag']}: estimate {est['estimate']:.5f} is more than "
                   f"{HITTING_HALF_WIDTHS} half-widths ({half:.5f}) from "
                   f"{expected:.5f}")
    return bad


def defect(call, est):
    """Positive defect across the exa1 glue; null defect where symmetric."""
    if call["expect_positive"]:
        if not est["ci_low"] > 0.0:
            return [f"{call['tag']}: ci_low {est['ci_low']:.5g} is not > 0"]
        return []
    half = (est["ci_high"] - est["ci_low"]) / 2.0
    if not abs(est["mean"]) <= DEFECT_HALF_WIDTHS * half:
        return [f"{call['tag']}: |mean| {abs(est['mean']):.5g} exceeds "
                f"{DEFECT_HALF_WIDTHS} half-widths ({half:.5g})"]
    return []
