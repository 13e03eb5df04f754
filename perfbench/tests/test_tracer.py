"""Self-time arithmetic and installation of the layer tracer."""

import array

import pytest

import tracer as tracing


def spans(rows):
    """rows of (name, parent, start, end) -> the arrays self_times takes."""
    names = sorted({name for name, *_ in rows})
    return (
        names,
        array.array("q", [names.index(name) for name, *_ in rows]),
        array.array("q", [parent for _, parent, _, _ in rows]),
        array.array("d", [start for _, _, start, _ in rows]),
        array.array("d", [end for _, _, _, end in rows]),
    )


def test_self_time_subtracts_children():
    # harness [0, 10]
    #   cli [1, 9]
    #     characters [2, 6]
    #       compositions [3, 4]
    #     elements [6, 8]
    #   demos [9, 9.5]
    totals, calls = tracing.self_times(
        *spans(
            [
                ("harness", -1, 0.0, 10.0),
                ("cli:run", 0, 1.0, 9.0),
                ("characters:qps_expand", 1, 2.0, 6.0),
                ("compositions:coarsenings", 2, 3.0, 4.0),
                ("elements:product", 1, 6.0, 8.0),
                ("demos:eta_check", 0, 9.0, 9.5),
            ]
        )
    )
    assert totals == pytest.approx(
        {"harness": 1.5, "cli": 2.0, "characters": 3.0, "compositions": 1.0, "elements": 2.0, "demos": 0.5}
    )
    assert sum(totals.values()) == pytest.approx(10.0)
    assert calls == {"cli": 1, "characters": 1, "compositions": 1, "elements": 1, "demos": 1}


def test_self_time_sums_repeated_spans_of_one_layer():
    totals, calls = tracing.self_times(
        *spans(
            [
                ("harness", -1, 0.0, 4.0),
                ("elements:product", 0, 0.0, 1.0),
                ("elements:GradedElement.__add__", 0, 2.0, 3.5),
                ("compositions:quasi_shuffle", 2, 2.5, 3.0),
            ]
        )
    )
    assert totals == pytest.approx({"harness": 1.5, "elements": 2.0, "compositions": 0.5})
    assert calls == {"elements": 2, "compositions": 1}


def test_install_attributes_calls_and_uninstall_restores(tmp_path):
    import qshuffle
    from qshuffle import characters, compositions, elements

    originals = (characters.coarsenings, compositions.coarsenings, elements.GradedElement.__add__, qshuffle.qps_expand)
    t = tracing.Tracer()
    t.install()
    try:
        # one wrapper per function, whichever namespace binds it
        assert characters.coarsenings is compositions.coarsenings
        assert characters.coarsenings is not originals[0]
        t.start()
        result = qshuffle.qps_expand(qshuffle.builtin("type1"), qshuffle.Composition((2, 1)))
        t.stop()
    finally:
        t.uninstall()
    assert (characters.coarsenings, compositions.coarsenings, elements.GradedElement.__add__, qshuffle.qps_expand) == originals
    assert qshuffle.format_element(result) == "M[2,1] + 1/3 M[3]"

    path = tmp_path / "spans.bin"
    t.dump(str(path))
    loaded = tracing.load(str(path))
    totals, calls = tracing.self_times(*loaded)
    assert calls["characters"] >= 1 and calls["compositions"] >= 1 and calls["elements"] >= 1
    root = loaded[4][0] - loaded[3][0]
    assert sum(totals.values()) == pytest.approx(root)


def test_generator_resumes_are_charged_to_their_layer():
    from qshuffle import compositions, functionals

    t = tracing.Tracer()
    t.install()
    try:
        t.start()
        splits = list(functionals.nonempty_splits(compositions.Composition((1, 2, 3))))
        t.stop()
    finally:
        t.uninstall()
    assert len(splits) == 4
    names = [t.names[i] for i in t.name_ids]
    # one span per resume: four splits and the final StopIteration
    assert names.count("compositions:nonempty_splits") == 5


def test_calls_inside_one_layer_record_no_span():
    from qshuffle import compositions

    t = tracing.Tracer()
    t.install()
    try:
        t.start()
        # compositions_up_to calls compositions_of through its own module namespace
        compositions.compositions_up_to(6)
        t.stop()
    finally:
        t.uninstall()
    names = [t.names[i] for i in t.name_ids]
    assert names == ["harness", "compositions:compositions_up_to"]
