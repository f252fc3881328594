"""Pinned text and LaTeX renderings of equations and of their
specializations at roots of unity (before and after the real/imaginary
split), so the renderers keep their exact output."""

from mplparity.engine import pli
from mplparity.roots import RootOfUnity, czv_to_latex, czv_to_text, render_real_imag, specialize
from mplparity.terms import lincomb_to_latex, lincomb_to_text

ROOTS = (RootOfUnity.make(1, 4), RootOfUnity.make(1, 2), RootOfUnity.make(1, 3))

LINCOMB_1_2 = {
    "text": (
        "Li_{3}(z1) - Li_{3}(z1*z2) + 2*Li_{3}(1/z2) - ber_1(z1*z2)*Li_{2}(z1)"
        " + ber_1(z1*z2)*Li_{2}(1/z2) + ber_2(z1*z2)*Li_{1}(z1) - ber_2(z2)*Li_{1}(z1)"
    ),
    "latex": (
        "\\operatorname{Li}_{3}\\!\\left(z_{1}\\right)"
        " -\\operatorname{Li}_{3}\\!\\left(z_{1} z_{2}\\right)"
        " +2\\operatorname{Li}_{3}\\!\\left(\\tfrac{1}{z_{2}}\\right)"
        " -\\operatorname{ber}_{1}\\!\\left(z_{1} z_{2}\\right) \\operatorname{Li}_{2}\\!\\left(z_{1}\\right)"
        " +\\operatorname{ber}_{1}\\!\\left(z_{1} z_{2}\\right) \\operatorname{Li}_{2}\\!\\left(\\tfrac{1}{z_{2}}\\right)"
        " +\\operatorname{ber}_{2}\\!\\left(z_{1} z_{2}\\right) \\operatorname{Li}_{1}\\!\\left(z_{1}\\right)"
        " -\\operatorname{ber}_{2}\\!\\left(z_{2}\\right) \\operatorname{Li}_{1}\\!\\left(z_{1}\\right)"
    ),
}

SPEC_1_2 = {
    "text": (
        "-3/2*zeta(3) + Li_{3}(i) - Li_{3}(-i) - 1/2*(i*pi)*Li_{2}(i)"
        " + 1/8*(i*pi)^2*Li_{1}(i) + 1/24*(i*pi)^3"
    ),
    "latex": (
        "-\\tfrac{3}{2}\\zeta(3) +\\operatorname{Li}_{3}(i) -\\operatorname{Li}_{3}(-i)"
        " -\\tfrac{1}{2}(i\\pi)^{1} \\operatorname{Li}_{2}(i)"
        " +\\tfrac{1}{8}(i\\pi)^{2} \\operatorname{Li}_{1}(i)"
        " +\\tfrac{1}{24}(i\\pi)^{3}"
    ),
    "real_imag_text": (
        "-3/2*zeta(3) + Re Li_{3}(i) - Re Li_{3}(-i) - 1/2*i*(i*pi)*Im Li_{2}(i)"
        " + 1/8*(i*pi)^2*Re Li_{1}(i)"
    ),
    "real_imag_latex": (
        "-\\tfrac{3}{2}\\zeta(3) +\\operatorname{Re}\\,\\operatorname{Li}_{3}(i)"
        " -\\operatorname{Re}\\,\\operatorname{Li}_{3}(-i)"
        " -\\tfrac{1}{2}i (i\\pi)^{1} \\operatorname{Im}\\,\\operatorname{Li}_{2}(i)"
        " +\\tfrac{1}{8}(i\\pi)^{2} \\operatorname{Re}\\,\\operatorname{Li}_{1}(i)"
    ),
}

SPEC_1_2_1 = {
    "text": (
        "Li_{1}(e(2pi i 1/3))*Li_{3}(i) + Li_{2}(e(2pi i 1/3))*Li_{2}(i)"
        " + Li_{4}(e(2pi i 1/3)) - Li_{4}(e(2pi i 1/12)) - 3*Li_{4}(-i)"
        " + 3*Li_{4}(e(2pi i 5/6)) - 2*Li_{1,3}(i,-1) - Li_{1,3}(i,e(2pi i 5/6))"
        " + Li_{2,2}(-1,e(2pi i 1/3)) - Li_{2,2}(i,-1) + 2*Li_{3,1}(-1,e(2pi i 1/3))"
        " - Li_{3,1}(-i,e(2pi i 1/3)) + 5/6*(i*pi)*Li_{1}(e(2pi i 1/3))*Li_{2}(i)"
        " + 3/2*(i*pi)*Li_{1}(i)*Li_{2}(e(2pi i 1/3)) - 3/4*(i*pi)*zeta(3)"
        " + 5/6*(i*pi)*Li_{3}(e(2pi i 1/3)) - 1/3*(i*pi)*Li_{3}(i)"
        " - 1/2*(i*pi)*Li_{3}(-i) + 5/6*(i*pi)*Li_{3}(e(2pi i 5/6))"
        " - 1/2*(i*pi)*Li_{1,2}(i,-1) + 5/6*(i*pi)*Li_{2,1}(-1,e(2pi i 1/3))"
        " + 1/8*(i*pi)^2*Li_{1}(e(2pi i 1/3))*Li_{1}(i)"
        " - 11/18*(i*pi)^2*Li_{2}(e(2pi i 1/3)) - 11/36*(i*pi)^2*Li_{2}(i)"
        " - 25/324*(i*pi)^3*Li_{1}(e(2pi i 1/3)) - 1/12*(i*pi)^3*Li_{1}(i)"
        " + 641/19440*(i*pi)^4"
    ),
    "latex": (
        "\\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Li}_{3}(i)"
        " +\\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Li}_{2}(i)"
        " +\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 1/3})"
        " -\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 1/12}) -3\\operatorname{Li}_{4}(-i)"
        " +3\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 5/6})"
        " -2\\operatorname{Li}_{1,3}(i, -1)"
        " -\\operatorname{Li}_{1,3}(i, e^{2\\pi i \\cdot 5/6})"
        " +\\operatorname{Li}_{2,2}(-1, e^{2\\pi i \\cdot 1/3})"
        " -\\operatorname{Li}_{2,2}(i, -1)"
        " +2\\operatorname{Li}_{3,1}(-1, e^{2\\pi i \\cdot 1/3})"
        " -\\operatorname{Li}_{3,1}(-i, e^{2\\pi i \\cdot 1/3})"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Li}_{2}(i)"
        " +\\tfrac{3}{2}(i\\pi)^{1} \\operatorname{Li}_{1}(i) \\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{3}{4}(i\\pi)^{1} \\zeta(3)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Li}_{3}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{1}{3}(i\\pi)^{1} \\operatorname{Li}_{3}(i)"
        " -\\tfrac{1}{2}(i\\pi)^{1} \\operatorname{Li}_{3}(-i)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Li}_{3}(e^{2\\pi i \\cdot 5/6})"
        " -\\tfrac{1}{2}(i\\pi)^{1} \\operatorname{Li}_{1,2}(i, -1)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Li}_{2,1}(-1, e^{2\\pi i \\cdot 1/3})"
        " +\\tfrac{1}{8}(i\\pi)^{2} \\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Li}_{1}(i)"
        " -\\tfrac{11}{18}(i\\pi)^{2} \\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{11}{36}(i\\pi)^{2} \\operatorname{Li}_{2}(i)"
        " -\\tfrac{25}{324}(i\\pi)^{3} \\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{1}{12}(i\\pi)^{3} \\operatorname{Li}_{1}(i)"
        " +\\tfrac{641}{19440}(i\\pi)^{4}"
    ),
    "real_imag_text": (
        "Re Li_{1}(e(2pi i 1/3))*Re Li_{3}(i) - 2*Li_{1,3}(i,-1)"
        " - Li_{1,3}(i,e(2pi i 5/6)) + Li_{2,2}(-1,e(2pi i 1/3)) - Li_{2,2}(i,-1)"
        " + 2*Li_{3,1}(-1,e(2pi i 1/3)) - Li_{3,1}(-i,e(2pi i 1/3))"
        " + i*Im Li_{4}(e(2pi i 1/3)) - i*Im Li_{4}(e(2pi i 1/12)) - 3*i*Im Li_{4}(-i)"
        " + 3*i*Im Li_{4}(e(2pi i 5/6)) + (-1)*Im Li_{2}(e(2pi i 1/3))*Im Li_{2}(i)"
        " - 3/4*(i*pi)*zeta(3) + 5/6*(i*pi)*Re Li_{3}(e(2pi i 1/3))"
        " - 1/6*(i*pi)*Re Li_{3}(i) - 1/2*(i*pi)*Re Li_{3}(-i)"
        " + 5/6*(i*pi)*Re Li_{3}(e(2pi i 5/6)) - 1/2*(i*pi)*Li_{1,2}(i,-1)"
        " + 5/6*(i*pi)*Li_{2,1}(-1,e(2pi i 1/3))"
        " + 5/6*i*(i*pi)*Re Li_{1}(e(2pi i 1/3))*Im Li_{2}(i)"
        " + 3/2*i*(i*pi)*Re Li_{1}(i)*Im Li_{2}(e(2pi i 1/3))"
        " + 1/8*(i*pi)^2*Re Li_{1}(e(2pi i 1/3))*Re Li_{1}(i)"
        " - 31/144*i*(i*pi)^2*Im Li_{2}(e(2pi i 1/3)) - 1/9*i*(i*pi)^2*Im Li_{2}(i)"
        " - 155/2592*(i*pi)^3*Re Li_{1}(e(2pi i 1/3)) + 1/48*(i*pi)^3*Re Li_{1}(i)"
        " - 289/19440*(i*pi)^4"
    ),
    "real_imag_latex": (
        "\\operatorname{Re}\\,\\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Re}\\,\\operatorname{Li}_{3}(i)"
        " -2\\operatorname{Li}_{1,3}(i, -1)"
        " -\\operatorname{Li}_{1,3}(i, e^{2\\pi i \\cdot 5/6})"
        " +\\operatorname{Li}_{2,2}(-1, e^{2\\pi i \\cdot 1/3})"
        " -\\operatorname{Li}_{2,2}(i, -1)"
        " +2\\operatorname{Li}_{3,1}(-1, e^{2\\pi i \\cdot 1/3})"
        " -\\operatorname{Li}_{3,1}(-i, e^{2\\pi i \\cdot 1/3})"
        " +i \\operatorname{Im}\\,\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 1/3})"
        " -i \\operatorname{Im}\\,\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 1/12})"
        " -3i \\operatorname{Im}\\,\\operatorname{Li}_{4}(-i)"
        " +3i \\operatorname{Im}\\,\\operatorname{Li}_{4}(e^{2\\pi i \\cdot 5/6})"
        " +(-1) \\operatorname{Im}\\,\\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Im}\\,\\operatorname{Li}_{2}(i)"
        " -\\tfrac{3}{4}(i\\pi)^{1} \\zeta(3)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{3}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{1}{6}(i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{3}(i)"
        " -\\tfrac{1}{2}(i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{3}(-i)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{3}(e^{2\\pi i \\cdot 5/6})"
        " -\\tfrac{1}{2}(i\\pi)^{1} \\operatorname{Li}_{1,2}(i, -1)"
        " +\\tfrac{5}{6}(i\\pi)^{1} \\operatorname{Li}_{2,1}(-1, e^{2\\pi i \\cdot 1/3})"
        " +\\tfrac{5}{6}i (i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Im}\\,\\operatorname{Li}_{2}(i)"
        " +\\tfrac{3}{2}i (i\\pi)^{1} \\operatorname{Re}\\,\\operatorname{Li}_{1}(i) \\operatorname{Im}\\,\\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3})"
        " +\\tfrac{1}{8}(i\\pi)^{2} \\operatorname{Re}\\,\\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3}) \\operatorname{Re}\\,\\operatorname{Li}_{1}(i)"
        " -\\tfrac{31}{144}i (i\\pi)^{2} \\operatorname{Im}\\,\\operatorname{Li}_{2}(e^{2\\pi i \\cdot 1/3})"
        " -\\tfrac{1}{9}i (i\\pi)^{2} \\operatorname{Im}\\,\\operatorname{Li}_{2}(i)"
        " -\\tfrac{155}{2592}(i\\pi)^{3} \\operatorname{Re}\\,\\operatorname{Li}_{1}(e^{2\\pi i \\cdot 1/3})"
        " +\\tfrac{1}{48}(i\\pi)^{3} \\operatorname{Re}\\,\\operatorname{Li}_{1}(i)"
        " -\\tfrac{289}{19440}(i\\pi)^{4}"
    ),
}


def test_lincomb_renderings_pinned():
    eq = pli((1, 2)).equation
    assert lincomb_to_text(eq) == LINCOMB_1_2["text"]
    assert lincomb_to_latex(eq) == LINCOMB_1_2["latex"]


def test_czv_renderings_pinned():
    for n, form, pinned in (((1, 2), "compact", SPEC_1_2), ((1, 2, 1), "canonical", SPEC_1_2_1)):
        combo = specialize(pli(n, form), ROOTS[:len(n)])
        split = render_real_imag(combo)
        assert czv_to_text(combo) == pinned["text"], n
        assert czv_to_latex(combo) == pinned["latex"], n
        assert czv_to_text(split) == pinned["real_imag_text"], n
        assert czv_to_latex(split) == pinned["real_imag_latex"], n


def test_empty_sums_render_as_zero():
    from mplparity.roots import CzvCombination
    from mplparity.terms import LinComb

    assert lincomb_to_text(LinComb(2)) == lincomb_to_latex(LinComb(2)) == "0"
    assert czv_to_text(CzvCombination()) == czv_to_latex(CzvCombination()) == "0"
