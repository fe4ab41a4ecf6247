"""Sample deletion stages for the layered-view tests.

Checks are written against the level handle only, with locals
comfortably inside the declared budgets.
"""

from romapprox.layers import StagePredicate


def delete_min_live_id():
    def check(level, v):
        for w in range(1, level.n + 1):
            if level.vertex_live(w):
                return w == v
        return False

    return StagePredicate("delete-min-live-id", check, words_budget=8)


def delete_isolated():
    def check(level, v):
        for _ in level.neighbors_live(v):
            return False
        return True

    return StagePredicate("delete-isolated", check, words_budget=8)


def delete_high_degree(threshold):
    def check(level, v):
        count = 0
        for _ in level.neighbors_live(v):
            count += 1
            if count >= threshold:
                return True
        return False

    return StagePredicate(f"delete-degree-ge-{threshold}", check, words_budget=8)


def delete_element_min_live_id():
    def check(level, e):
        for x in range(1, level.n + 1):
            if level.element_live(x):
                return x == e
        return False

    return StagePredicate("delete-element-min-live-id", check, words_budget=8)


def delete_uncovered_elements():
    def check(level, e):
        return level.live_set_count_containing(e) == 0

    return StagePredicate("delete-uncovered", check, words_budget=8)
