"""Reference relation suite, for checking ``ck.verify_relations``.

The same cases in the same order, built from the algebra's public
constructors, with every product taken by ``dense_witness_oracle.product``,
which walks every word of every result and shares no code with the
algebra's ``_multiply``.  Each case is decided by ``alg.equal`` and its
failure record is written out here, field by field.
"""

from fractions import Fraction

from ckshift.ck import VerificationReport

from dense_witness_oracle import product


def verify_relations(alg, max_word_len=4, max_state_len=3, inject_fault=False):
    report = VerificationReport(
        0, 0, params={"max_word_len": max_word_len, "max_state_len": max_state_len}
    )

    def case(holds, record):
        report.cases += 1
        if holds:
            report.passed += 1
        else:
            report.failures.append(record)

    n = alg.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = alg.p(i) if i == j else alg.zero
            case(
                alg.equal(product(alg, alg.p(i), alg.p(j)), want),
                {"relation": "range_projection_orthogonality", "i": i, "j": j},
            )

    total = alg.zero
    for j in range(1, n + 1):
        total = total + alg.p(j)
    if inject_fault:
        total = total + Fraction(1, 2) * alg.p(1)
    case(alg.equal(total, alg.identity), {"relation": "unit_decomposition"})

    for k in range(1, max_word_len + 1):
        for mu in alg.words(k):
            for nu in alg.words(k):
                want = alg.q(mu[-1]) if mu == nu else alg.zero
                case(
                    alg.equal(product(alg, alg.s_star(mu), alg.s(nu)), want),
                    {"relation": "word_collapse", "mu": list(mu), "nu": list(nu)},
                )

    for ke in range(1, max_state_len + 1):
        for eta in alg.words(ke):
            q_eta = product(alg, alg.s_star(eta), alg.s(eta))
            for ka in range(1, max_state_len + 1):
                for a in alg.words(ka):
                    want = alg.s(a) if alg.matrix.entry(eta[-1], a[0]) else alg.zero
                    case(
                        alg.equal(product(alg, q_eta, alg.s(a)), want),
                        {"relation": "support_absorption", "eta": list(eta), "alpha": list(a)},
                    )

    for m in range(1, max_word_len + 1):
        resolution = alg.element({(wd, wd): 1 for wd in alg.words(m)})
        case(alg.equal(resolution, alg.identity), {"relation": "depth_resolution", "m": m})

    return report
