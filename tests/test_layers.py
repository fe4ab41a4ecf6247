import pytest

from romapprox.errors import DomainError
from romapprox.instances import GraphInstance, SetFamilyInstance
from romapprox.layers import (
    WORDS_PER_LEVEL,
    LayeredFamilyView,
    LayeredGraphView,
    StagePredicate,
    enumerate_stage,
)
from romapprox.meter import WorkspaceMeter, with_meter
from sample_stages import (
    delete_element_min_live_id,
    delete_high_degree,
    delete_isolated,
    delete_min_live_id,
    delete_uncovered_elements,
)

PATH4 = GraphInstance(4, [(1, 2), (2, 3), (3, 4)])
FAMILY = SetFamilyInstance(4, 2, [(1, 2), (2, 3), (3, 4)])


def test_min_id_stack_layers():
    view = LayeredGraphView(PATH4, [delete_min_live_id(), delete_min_live_id()])
    assert list(enumerate_stage(view, 1, "S")) == [1]
    assert list(enumerate_stage(view, 2, "S")) == [2]
    assert list(enumerate_stage(view, 2, "V")) == [3, 4]
    assert list(enumerate_stage(view, 2, "E")) == [(3, 4)]
    assert list(enumerate_stage(view, 1, "V")) == [2, 3, 4]
    assert list(enumerate_stage(view, 0, "V")) == [1, 2, 3, 4]


def test_isolated_stage_on_edgeless_graph():
    g = GraphInstance(3, [])
    view = LayeredGraphView(g, [delete_isolated()])
    assert list(enumerate_stage(view, 1, "S")) == [1, 2, 3]
    assert list(enumerate_stage(view, 1, "V")) == []


def test_high_degree_stage():
    star = GraphInstance(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    view = LayeredGraphView(star, [delete_high_degree(3)])
    assert list(enumerate_stage(view, 1, "S")) == [1]
    assert list(enumerate_stage(view, 1, "E")) == []


def test_family_stack_layers():
    stages = [delete_element_min_live_id(), delete_element_min_live_id()]
    view = LayeredFamilyView(FAMILY, stages)
    assert list(enumerate_stage(view, 1, "S")) == [1]
    assert list(enumerate_stage(view, 2, "S")) == [2]
    assert list(enumerate_stage(view, 2, "U")) == [3, 4]
    assert list(enumerate_stage(view, 1, "F")) == [2, 3]
    assert list(enumerate_stage(view, 2, "F")) == [3]


def test_uncovered_elements_stage():
    f = SetFamilyInstance(5, 2, [(1, 2)])
    view = LayeredFamilyView(f, [delete_uncovered_elements()])
    assert list(enumerate_stage(view, 1, "S")) == [3, 4, 5]
    assert list(enumerate_stage(view, 1, "U")) == [1, 2]
    assert list(enumerate_stage(view, 1, "F")) == [1]


def test_set_dies_with_first_deleted_element():
    view = LayeredFamilyView(FAMILY, [delete_element_min_live_id()])
    assert view.set_live(0, 1)
    assert not view.set_live(1, 1)
    assert view.set_live(1, 2)
    assert view.stage_deleted(1, 1)
    assert not view.stage_deleted(1, 2)


def test_level_bounds_checked():
    meter = WorkspaceMeter()
    view = LayeredGraphView(PATH4, [delete_min_live_id()], meter=meter)
    with pytest.raises(DomainError):
        view.vertex_live(2, 1)
    for i, kind in ((0, "S"), (2, "S"), (1, "Q"), (2, "V"), (1, "F")):
        with pytest.raises(DomainError):
            list(enumerate_stage(view, i, kind))
    # a refused call streams nothing, so it counts no pass
    assert meter.pass_estimate == 0


_GRAPH_VIEW = LayeredGraphView(PATH4, [delete_min_live_id()])
_FAMILY_VIEW = LayeredFamilyView(FAMILY, [delete_element_min_live_id()])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _GRAPH_VIEW.level(2), "level 2 outside 0..1"),
        (lambda: _GRAPH_VIEW.vertex_live(1, 5), "vertex 5 out of range 1..4"),
        (lambda: _GRAPH_VIEW.stage_deleted(0, 1), "stage 0 outside 1..1"),
        (lambda: _GRAPH_VIEW.stage_deleted(2, 1), "stage 2 outside 1..1"),
        (lambda: _FAMILY_VIEW.set_live(1, 4), "set index 4 out of range 1..3"),
        (
            lambda: list(enumerate_stage(PATH4, 1, "S")),
            "not a layered view: GraphInstance",
        ),
    ],
    ids=["level", "vertex_live", "stage_0", "stage_past_depth", "set_live", "not_a_view"],
)
def test_range_checks_name_the_bad_value(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def _delete(victim):
    return StagePredicate(f"delete-{victim}", lambda level, e: e == victim, words_budget=4)


@pytest.mark.parametrize("memoized", [False, True])
def test_live_members_reads_a_set_once_up_to_its_first_dead_element(memoized):
    # Stage 1 deletes element 1 and stage 2 element 4.  The stages read
    # nothing, so every access and liveness question is the query's own:
    # len(set) accesses per call, and elements asked in set order up to
    # the first dead one.
    f = SetFamilyInstance(5, 3, [(2, 1, 3), (2, 3, 4), (5, 3)])
    meter = WorkspaceMeter()
    view = LayeredFamilyView(f, [_delete(1), _delete(4)], meter=meter, memoized=memoized)
    asked = []
    real = view._live

    def spy(i, e, k=0):
        asked.append(e)
        return real(i, e, k)

    view._live = spy
    want = {
        0: [((2, 1, 3), [2, 1, 3]), ((2, 3, 4), [2, 3, 4]), ((5, 3), [5, 3])],
        1: [(None, [2, 1]), ((2, 3, 4), [2, 3, 4]), ((5, 3), [5, 3])],
        2: [(None, [2, 1]), (None, [2, 3, 4]), ((5, 3), [5, 3])],
    }
    for i, rows in want.items():
        level = view.level(i)
        for j, (members, elements) in enumerate(rows, start=1):
            before = meter.input_accesses
            asked.clear()
            assert level.live_members(j) == members
            assert meter.input_accesses - before == len(f.sets[j - 1])
            assert asked == elements
            assert view.set_live(i, j) == (members is not None)
    with pytest.raises(DomainError) as info:
        view.level(1).live_members(4)
    assert str(info.value) == "set index 4 out of range 1..3"


def test_predicate_budget_validated():
    with pytest.raises(DomainError):
        StagePredicate("too-big", lambda level, v: False, words_budget=WORDS_PER_LEVEL + 1)
    with pytest.raises(DomainError):
        StagePredicate("zero", lambda level, v: False, words_budget=0)


def test_depth_query_charge_bounded():
    stages = [delete_min_live_id(), delete_isolated(), delete_min_live_id()]

    def body(meter):
        view = LayeredGraphView(PATH4, stages, meter=meter)
        return [view.vertex_live(3, v) for v in range(1, 5)]

    result, snap = with_meter(body)
    assert result == [False, False, True, True]
    budgets = sum(p.words_budget for p in stages)
    assert snap.charged_peak <= budgets
    assert snap.charged_peak <= 4 * WORDS_PER_LEVEL
    assert snap.input_accesses > 0


def test_repeated_queries_have_identical_charge_profiles():
    stages = [delete_min_live_id(), delete_isolated()]

    def profile():
        meter = WorkspaceMeter()
        view = LayeredGraphView(PATH4, stages, meter=meter)
        view.vertex_live(2, 3)
        return meter.snapshot()

    first = profile()
    second = profile()
    assert first == second


def _stack_pool_graph():
    return [
        lambda: delete_min_live_id(),
        lambda: delete_isolated(),
        lambda: delete_high_degree(2),
    ]


def test_memoized_matches_recursive_graph():
    import random

    rng = random.Random(7)
    pool = _stack_pool_graph()
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = GraphInstance(n, edges)
        depth = rng.randint(1, 4)
        makers = [rng.choice(pool) for _ in range(depth)]
        plain = LayeredGraphView(g, [mk() for mk in makers])
        memo = LayeredGraphView(g, [mk() for mk in makers], memoized=True)
        for i in range(depth + 1):
            assert list(enumerate_stage(plain, i, "V")) == list(
                enumerate_stage(memo, i, "V")
            )
            assert list(enumerate_stage(plain, i, "E")) == list(
                enumerate_stage(memo, i, "E")
            )
        for i in range(1, depth + 1):
            assert list(enumerate_stage(plain, i, "S")) == list(
                enumerate_stage(memo, i, "S")
            )


def test_memoized_matches_recursive_family():
    import random

    rng = random.Random(11)
    pool = [delete_element_min_live_id, delete_uncovered_elements]
    for _ in range(40):
        n = rng.randint(1, 7)
        m = rng.randint(0, 6)
        sets = []
        for _ in range(m):
            size = rng.randint(1, min(2, n))
            sets.append(tuple(rng.sample(range(1, n + 1), size)))
        f = SetFamilyInstance(n, 2, sets)
        depth = rng.randint(1, 4)
        makers = [rng.choice(pool) for _ in range(depth)]
        plain = LayeredFamilyView(f, [mk() for mk in makers])
        memo = LayeredFamilyView(f, [mk() for mk in makers], memoized=True)
        for i in range(depth + 1):
            assert list(enumerate_stage(plain, i, "U")) == list(
                enumerate_stage(memo, i, "U")
            )
            assert list(enumerate_stage(plain, i, "F")) == list(
                enumerate_stage(memo, i, "F")
            )
        for i in range(1, depth + 1):
            assert list(enumerate_stage(plain, i, "S")) == list(
                enumerate_stage(memo, i, "S")
            )


def _keep_all():
    return StagePredicate("keep-all", lambda level, x: False, words_budget=8)


@pytest.mark.parametrize("memoized", [False, True])
@pytest.mark.parametrize("depth", [800, 3000])
def test_deep_stacks_answer_cold_queries(depth, memoized):
    def graph_body(meter):
        view = LayeredGraphView(
            PATH4, [_keep_all() for _ in range(depth)], meter=meter, memoized=memoized
        )
        return view.vertex_live(depth, 2)

    def family_body(meter):
        view = LayeredFamilyView(
            FAMILY, [_keep_all() for _ in range(depth)], meter=meter, memoized=memoized
        )
        return view.element_live(depth, 3)

    for body in (graph_body, family_body):
        live, snap = with_meter(body)
        assert live
        assert snap.charged_peak == 8 * depth


def _recording_stack(budgets, deleting, probe):
    """Stage k (1-based) deletes exactly the vertex ``deleting[k - 1]`` and
    records (k, charged words held) each time it is asked."""

    def stage(k, budget, victim):
        def check(level, v):
            probe["log"].append((k, probe["meter"].charged_current))
            return v == victim

        return StagePredicate(f"record-{k}", check, words_budget=budget)

    return [
        stage(k, b, victim)
        for k, (b, victim) in enumerate(zip(budgets, deleting), start=1)
    ]


def _recursive_live(stages, meter, i, v, memo):
    """Reference: the level-by-level recursion, one frame per level, with
    the per-level memo when ``memo`` is not None."""
    if i == 0:
        return True
    if memo is not None and v in memo[i - 1]:
        return memo[i - 1][v]
    pred = stages[i - 1]
    meter.alloc(pred.words_budget)
    try:
        live = _recursive_live(stages, meter, i - 1, v, memo) and not pred.check(
            None, v
        )
    finally:
        meter.release(pred.words_budget)
    if memo is not None:
        memo[i - 1][v] = live
    return live


@pytest.mark.parametrize("memoized", [False])
def test_charge_held_at_each_predicate_matches_recursion(memoized):
    import random

    budgets = [3, 5, 7, 2, 8, 1, 6, 4]
    deleting = [0, 2, 0, 0, 4, 0, 1, 0]  # stages 2, 5 and 7 delete 2, 4, 1
    queries = [(i, v) for i in range(len(budgets) + 1) for v in range(1, 5)]
    random.Random(3).shuffle(queries)

    probe = {"meter": WorkspaceMeter(), "log": []}
    stages = _recording_stack(budgets, deleting, probe)
    memo = [{} for _ in stages] if memoized else None
    want = [_recursive_live(stages, probe["meter"], i, v, memo) for i, v in queries]
    want_log, want_peak = probe["log"], probe["meter"].charged_peak

    probe = {"meter": WorkspaceMeter(), "log": []}
    stages = _recording_stack(budgets, deleting, probe)
    view = LayeredGraphView(PATH4, stages, meter=probe["meter"], memoized=memoized)
    assert [view.vertex_live(i, v) for i, v in queries] == want
    assert probe["log"] == want_log
    assert probe["meter"].charged_peak == want_peak
    assert probe["meter"].charged_current == 0


def test_fast_mode_asks_each_stage_once_per_live_item():
    """Stage k's predicate is asked about every item live below it, once,
    stage-major and ascending, while the budgets of stages 1..k are held."""
    import random

    budgets = [3, 5, 7, 2, 8, 1, 6, 4]
    deleting = [0, 2, 0, 0, 4, 0, 1, 0]
    queries = [(i, v) for i in range(len(budgets) + 1) for v in range(1, 5)]
    random.Random(3).shuffle(queries)
    meter = WorkspaceMeter()
    log = []

    def stage(k, budget, victim):
        def check(level, v):
            log.append((k, v, meter.charged_current))
            return v == victim

        return StagePredicate(f"record-{k}", check, words_budget=budget)

    stages = [
        stage(k, b, victim)
        for k, (b, victim) in enumerate(zip(budgets, deleting), start=1)
    ]
    view = LayeredGraphView(PATH4, stages, meter=meter, memoized=True)
    got = [view.vertex_live(i, v) for i, v in queries]
    assert got == [v not in deleting[:i] for i, v in queries]
    want = []
    live = [1, 2, 3, 4]
    held = 0
    for k, (budget, victim) in enumerate(zip(budgets, deleting), start=1):
        held += budget
        want.extend((k, v, held) for v in live)
        if victim:
            live.remove(victim)
    assert log == want
    assert meter.charged_peak == held
    assert meter.charged_current == 0


def test_fast_mode_leaves_stages_below_nothing_live_unasked():
    asked = []

    def stage(k, deletes):
        def check(level, v):
            asked.append(k)
            return deletes

        return StagePredicate(f"stage-{k}", check, words_budget=4)

    g = GraphInstance(2, [(1, 2)])
    view = LayeredGraphView(
        g, [stage(1, False), stage(2, True), stage(3, True)], memoized=True
    )
    assert [list(enumerate_stage(view, i, "S")) for i in (1, 2, 3)] == [[], [1, 2], []]
    assert not view.vertex_live(3, 1)
    assert asked == [1, 1, 2, 2]


def test_audited_stage_stream_walks_to_the_stage_below_once():
    """An audited "S" query decides depth i-1 in one walk and then asks
    stage i alone: stage k is asked about every item live below it,
    once per stream item."""
    asked = {1: 0, 2: 0, 3: 0}

    def multiples_of(k, p):
        def check(level, v):
            asked[k] += 1
            return v % p == 0

        return StagePredicate(f"multiples-of-{p}", check, words_budget=4)

    stages = [multiples_of(1, 2), multiples_of(2, 3), multiples_of(3, 5)]
    g = GraphInstance(12, [])
    assert list(enumerate_stage(LayeredGraphView(g, stages), 3, "S")) == [5]
    assert asked == {1: 12, 2: 6, 3: 4}
    fast = LayeredGraphView(g, stages, memoized=True)
    assert list(enumerate_stage(fast, 3, "S")) == [5]
