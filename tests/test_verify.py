"""The shared verify checks must report failures when a route is wrong."""

import random
from dataclasses import replace

from symex import coeffs, esp, verify


def test_loworder_forms_report_a_planted_defect(monkeypatch):
    spelled_out = esp.esp_loworder
    monkeypatch.setattr(esp, "esp_loworder", lambda roots, i: spelled_out(roots, i) + (i == 4))
    check = verify.loworder_forms(random.Random(42))
    assert check.detail == "80 instances"
    assert len(check.failures) == 20 and {i for _, i in check.failures} == {4}


def test_convolution_checks_report_a_planted_defect(monkeypatch):
    recurrence = coeffs.coeff_recurrence

    def wrong_c2_at_n6(n, i, h_max):
        seq = recurrence(n, i, h_max)
        if n != 6:
            return seq
        return replace(seq, values=(seq.values[0], seq.values[1] + 1, *seq.values[2:]))

    monkeypatch.setattr(coeffs, "coeff_recurrence", wrong_c2_at_n6)
    routes, by_recurrence, by_closed = verify.convolution_checks()
    assert routes.failures == tuple((6, i) for i in range(1, 7))
    assert by_recurrence.failures == tuple((6, i, "h=2") for i in range(1, 7))
    assert by_closed.passed and by_closed.detail == "210 (n,i) pairs, h<=12"
