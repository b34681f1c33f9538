import hashlib
import math
import struct
import weakref
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, strategies as st

from neurokernel.errors import InvalidArgument, OutOfMemory, ResourceConsumed
from neurokernel.rabab import (
    BLACK,
    RED,
    DrawPixel,
    Framebuffer,
    Identity,
    KnowledgeGraph,
    RababEngine,
    Translate,
    apply_path,
    canonicalize_path,
    cosine_similarity,
    embed,
    interpret_intent,
    parse_intent,
    paths_equivalent,
)

BLUE = (0, 0, 255)


class TestPredicates:
    def test_the_rule_judges_each_value(self):
        engine = RababEngine()
        pred = engine.register_predicate("even-number-detector", lambda n: n % 2 == 0)
        engine.evolve_predicate(pred, 4, True)  # the rule says True: agreement
        engine.evolve_predicate(pred, 7, True)  # the rule says False: disagreement
        assert (pred.alpha, pred.beta) == (2.0, 2.0)

    def test_duplicate_name_rejected(self):
        engine = RababEngine()
        engine.register_predicate("p", lambda n: True)
        with pytest.raises(InvalidArgument):
            engine.register_predicate("p", lambda n: False)

    def test_fresh_predicate_has_uniform_prior(self):
        pred = RababEngine().register_predicate("p", lambda n: True)
        assert pred.confidence == 0.5

    def test_one_correct_outcome_gives_two_thirds(self):
        engine = RababEngine()
        pred = engine.register_predicate("p", lambda n: n > 0)
        engine.evolve_predicate(pred, 5, True)
        assert pred.confidence == 2.0 / 3.0

    def test_eight_correct_two_incorrect(self):
        engine = RababEngine()
        pred = engine.register_predicate("even", lambda n: n % 2 == 0)
        for n in range(8):
            engine.evolve_predicate(pred, 2 * n, True)  # correct
        for n in range(2):
            engine.evolve_predicate(pred, 2 * n, False)  # incorrect label
        assert (pred.alpha, pred.beta) == (9.0, 3.0)
        assert pred.confidence == 0.75

    def test_confidence_moves_in_the_right_direction(self):
        engine = RababEngine()
        pred = engine.register_predicate("p", lambda n: True)
        before = pred.confidence
        engine.evolve_predicate(pred, 0, True)
        assert pred.confidence > before
        mid = pred.confidence
        engine.evolve_predicate(pred, 0, False)
        assert pred.confidence < mid

    def test_what_a_rule_raises_reaches_the_caller_and_moves_nothing(self):
        engine = RababEngine()
        pred = engine.register_predicate("p", lambda n: n % 2 == 0)
        with pytest.raises(TypeError):
            engine.evolve_predicate(pred, "x", True)  # str % int: the rule is caller code
        assert (pred.alpha, pred.beta) == (1.0, 1.0)

    def test_a_predicate_registered_elsewhere_is_refused(self):
        other = RababEngine().register_predicate("p", lambda n: True)
        engine = RababEngine()
        engine.register_predicate("p", lambda n: True)
        with pytest.raises(InvalidArgument):
            engine.evolve_predicate(other, 1, True)
        assert (other.alpha, other.beta) == (1.0, 1.0)


class TestKnowledgeGraph:
    def test_absent_edge_first_update(self):
        graph = KnowledgeGraph()
        assert graph.evolve("cpu", "hot", 1.0) == pytest.approx(0.1)

    def test_fixed_point(self):
        graph = KnowledgeGraph()
        for _ in range(5):
            graph.evolve("a", "b", 0.5)
        w = graph._edges["a", "b"]
        assert graph.evolve("a", "b", w) == w

    def test_monotone_convergence_matches_geometric_oracle(self):
        graph = KnowledgeGraph()
        previous = 0.0
        for step in range(1, 101):
            w = graph.evolve("a", "b", 1.0)
            assert w > previous
            closed_form = 1.0 - 0.9**step
            assert w == pytest.approx(closed_form, rel=1e-9)
            previous = w
        assert abs(previous - 1.0) < 1e-3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidArgument):
            KnowledgeGraph().evolve("x", "x", 1.0)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            KnowledgeGraph().evolve("a", "b", 1.5)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    def test_weights_stay_in_unit_interval(self, targets):
        graph = KnowledgeGraph()
        for target in targets:
            w = graph.evolve("s", "o", target)
            assert 0.0 <= w <= 1.0


class TestEmbedding:
    def test_deterministic(self):
        assert embed(b"same input") == embed(b"same input")

    def test_unit_norm(self):
        vec = embed(b"anything")
        assert math.sqrt(sum(x * x for x in vec)) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_inputs_are_not_parallel(self):
        assert cosine_similarity(embed(b"a"), embed(b"b")) < 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgument):
            embed(b"")

    # UTF-8 text (ASCII and not) and other bytes, long and short; the digest is
    # the sha256 of their embeddings packed as little-endian doubles, recorded
    # from the per-slot sha256(data + slot) form under Python 3.11.
    PINNED_INPUTS = tuple(text.encode("utf-8") for text in (
        "a", "person", "t1", "t4800", "hello world", " padded tag ", "0", "x" * 1000,
        "é", "naïve café", "日本語のタグ", "🙂", "Ωμέγα\n",
    )) + (
        b"\x00", b"\xff\xfe\xfd", b"obstacle", b"\x00" * 64, bytes(range(256)),
        "t17".encode("utf-8") * 3, "ß".encode("utf-16-le"),
    )
    PINNED_DIGEST = "810928b1c08ba2cae8856aa63473130ddcfccbfa8c922e0e5190d99cf27dcaf7"

    def test_outputs_pinned_bit_for_bit(self):
        packed = b"".join(struct.pack("<32d", *embed(item)) for item in self.PINNED_INPUTS)
        assert hashlib.sha256(packed).hexdigest() == self.PINNED_DIGEST

    def test_dimension(self):
        assert len(embed(b"x")) == 32


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        v = [0.3, -1.2, 4.0]
        assert cosine_similarity(v, v) == 1.0

    def test_orthogonal_vectors(self):
        a = [1.0, 0.0, 0.0, 0.0]
        b = [0.0, 1.0, 0.0, 0.0]
        assert cosine_similarity(a, b) == 0.0

    def test_positive_scaling_invariance_exact_case(self):
        a = [1.0, 2.0, 2.0, 0.0]
        b = [2.0, 4.0, 4.0, 0.0]
        assert cosine_similarity(a, b) == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidArgument):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            cosine_similarity([1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=16),
        st.data(),
    )
    def test_symmetry_and_bounds(self, a, data):
        b = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100), min_size=len(a), max_size=len(a)
            )
        )
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            return
        value = cosine_similarity(a, b)
        assert value == cosine_similarity(b, a)
        assert -1.0 <= value <= 1.0


class TestLinearResources:
    def test_single_use(self):
        engine = RababEngine()
        res = engine.allocate_linear("weights")
        assert engine.consume_linear(res) == "weights"
        with pytest.raises(ResourceConsumed):
            engine.consume_linear(res)

    def test_leak_report(self):
        engine = RababEngine()
        engine.allocate_linear("never used")
        consumed = engine.allocate_linear("used")
        engine.consume_linear(consumed)
        assert engine.leaked_resources() == 1

    def test_a_consumed_payload_is_the_callers_alone(self):
        class Payload:
            pass

        engine = RababEngine()
        res = engine.allocate_linear(Payload())
        payload = weakref.ref(res.payload)
        engine.consume_linear(res)
        del res  # the caller drops the token and with it the payload
        assert payload() is None
        assert engine.leaked_resources() == 0

    def test_a_forged_token_is_not_a_consumed_one(self):
        engine = RababEngine()
        res = engine.allocate_linear("x")
        with pytest.raises(InvalidArgument):
            engine.consume_linear(replace(res))  # equal fields, but not the token allocated
        assert engine.consume_linear(res) == "x"

    def test_a_copy_of_a_consumed_token_is_not_the_consumed_token(self):
        engine = RababEngine()
        res = engine.allocate_linear("x")
        engine.consume_linear(res)
        with pytest.raises(InvalidArgument):
            engine.consume_linear(replace(res))
        with pytest.raises(ResourceConsumed):
            engine.consume_linear(res)
        assert engine.leaked_resources() == 0

    def test_a_refusal_never_shows_the_payload(self):
        class Opaque:
            def __repr__(self):
                raise RuntimeError("no repr")

        engine = RababEngine()
        res = engine.allocate_linear(Opaque())
        with pytest.raises(InvalidArgument, match="^InvalidArgument: Opaque resource is not"):
            engine.consume_linear(replace(res))
        engine.consume_linear(res)
        with pytest.raises(ResourceConsumed, match="^ResourceConsumed: Opaque resource was"):
            engine.consume_linear(res)

    def test_foreign_resource_rejected(self):
        other = RababEngine()
        live, consumed = other.allocate_linear("x"), other.allocate_linear("z")
        other.consume_linear(consumed)
        engine = RababEngine()
        mine = engine.allocate_linear("y")
        for foreign in (live, consumed):  # another engine's token, live or consumed there
            with pytest.raises(InvalidArgument):
                engine.consume_linear(foreign)
        assert engine.leaked_resources() == 1
        assert engine.consume_linear(mine) == "y"

    def test_randomized_programs_never_double_consume(self):
        rng = Random(17)
        for _ in range(200):
            engine = RababEngine()
            resources = [engine.allocate_linear(i) for i in range(rng.randint(1, 5))]
            used = set()
            for _ in range(rng.randint(1, 10)):
                res = rng.choice(resources)
                if res in used:
                    with pytest.raises(ResourceConsumed):
                        engine.consume_linear(res)
                else:
                    assert engine.consume_linear(res) == res.payload
                    used.add(res)
            assert engine.leaked_resources() == len(resources) - len(used)


class TestIntents:
    def test_draw_red_pixel(self):
        fb = Framebuffer()
        interpret_intent(DrawPixel(100, 50, RED), fb)
        assert fb._pixels[50 * fb.width + 100] == (255, 0, 0)

    def test_only_one_pixel_changes(self):
        fb = Framebuffer(8, 8)
        before = list(fb._pixels)
        interpret_intent(DrawPixel(3, 4, RED), fb)
        after = fb._pixels
        diffs = [i for i, (x, y) in enumerate(zip(before, after)) if x != y]
        assert diffs == [4 * 8 + 3]

    def test_black_on_black_is_idempotent(self):
        fb = Framebuffer(8, 8)
        before = list(fb._pixels)
        interpret_intent(DrawPixel(0, 0, BLACK), fb)
        assert fb._pixels == before

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InvalidArgument):
            interpret_intent(DrawPixel(128, 0, RED), Framebuffer(128, 128))

    def test_parse_intent(self):
        assert parse_intent("pixel:100,50,#FF0000") == DrawPixel(100, 50, (255, 0, 0))

    @pytest.mark.parametrize("text, expected", [
        ("pixel: 7 , 0 ,#00ff7F", DrawPixel(7, 0, (0, 255, 127))),
        ("pixel:-1,-20,#000000", DrawPixel(-1, -20, (0, 0, 0))),
        ("pixel:0012,3,#ABCDEF", DrawPixel(12, 3, (0xAB, 0xCD, 0xEF))),
    ])
    def test_parse_accepts_ascii_digits_and_hex(self, text, expected):
        assert parse_intent(text) == expected

    @pytest.mark.parametrize("bad", [
        "circle:1,2,#000000", "pixel:1,2", "pixel:1,2,red",
        "pixel:1,2,#-10000",   # int() took "-1" as a channel
        "pixel:1,2,# 00000",   # and " 0"
        "pixel:1,2,#+F0000",   # and "+F"
        "pixel:1,2,#\u0661\u0662\u0663\u0664\u0665\u0666",  # non-ASCII digits
        "pixel:1,2,#0000000", "pixel:1,2,#00000", "pixel:1,2,000000#",
        "pixel:1_0,2,#000000",  # int() took "1_0" as 10
        "pixel:+1,2,#000000",
        "pixel:1,\u0662,#000000",
        "pixel:1 0,2,#000000",
        "pixel:--1,2,#000000",
        "pixel:-,2,#000000",
        "pixel:,2,#000000",
        "pixel:0x1,2,#000000",
        "pixel:" + "1" * 5000 + ",2,#000000",  # past int()'s digit limit: it raised ValueError
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(InvalidArgument):
            parse_intent(bad)

    @pytest.mark.parametrize("call, error", [
        (lambda: Framebuffer(0, 4), InvalidArgument),
        (lambda: Framebuffer(10**30, 4), OutOfMemory),  # refused before any allocation
        (lambda: Framebuffer(2**31, 2**31), OutOfMemory),
    ], ids=["width-zero", "overflow", "too-large"])
    def test_bad_framebuffer_sizes_are_one_kernel_error_of_their_kind(self, call, error):
        with pytest.raises(error):
            call()

    def test_ppm_output(self):
        fb = Framebuffer(2, 1)
        interpret_intent(DrawPixel(1, 0, RED), fb)
        assert fb.to_ppm() == "P3\n2 1\n255\n0 0 0 255 0 0\n"


class TestPathCanonicalization:
    def test_identity_removal(self):
        assert paths_equivalent(
            [Identity(), DrawPixel(1, 1, RED)], [DrawPixel(1, 1, RED)]
        )

    def test_translate_folds_into_draw(self):
        assert paths_equivalent(
            [Translate(2, 0), DrawPixel(3, 5, RED)], [DrawPixel(5, 5, RED)]
        )

    def test_consecutive_translates_compose(self):
        p = [Translate(1, 0), Translate(0, 1), DrawPixel(2, 2, RED)]
        q = [Translate(1, 1), DrawPixel(2, 2, RED)]
        assert paths_equivalent(p, q)

    def test_trailing_translates_have_no_effect(self):
        assert paths_equivalent([Translate(1, 0)], [Translate(0, 1)])
        assert paths_equivalent([Translate(3, 3)], [])

    def test_shadowed_draw_is_dropped(self):
        p = [DrawPixel(1, 1, RED), DrawPixel(1, 1, BLUE)]
        assert paths_equivalent(p, [DrawPixel(1, 1, BLUE)])
        assert not paths_equivalent(p, [DrawPixel(1, 1, RED)])

    def test_disjoint_draw_order_is_irrelevant(self):
        p = [DrawPixel(0, 0, RED), DrawPixel(2, 2, BLUE)]
        q = [DrawPixel(2, 2, BLUE), DrawPixel(0, 0, RED)]
        assert paths_equivalent(p, q)

    def test_canonicalization_is_idempotent(self):
        path = [Translate(1, 1), DrawPixel(0, 0, RED), Identity(), DrawPixel(1, 1, BLUE)]
        once = canonicalize_path(path)
        assert canonicalize_path(once) == once

    def test_out_of_bounds_fold_rejected(self):
        with pytest.raises(InvalidArgument):
            canonicalize_path([Translate(-2, 0), DrawPixel(1, 1, RED)], width=8, height=8)

    def test_canonical_form_reproduces_the_effect(self):
        path = [Translate(1, 0), DrawPixel(1, 1, RED), Translate(0, 2), DrawPixel(1, 1, BLUE),
                DrawPixel(0, 0, RED), DrawPixel(0, 0, BLUE)]
        expected = [BLACK] * 64
        expected[1 * 8 + 2], expected[3 * 8 + 2], expected[2 * 8 + 1] = RED, BLUE, BLUE
        assert apply_path(path, Framebuffer(8, 8))._pixels == expected
        assert apply_path(canonicalize_path(path, 8, 8), Framebuffer(8, 8))._pixels == expected

    @pytest.mark.parametrize("bad", [DrawPixel(7, 0, RED), DrawPixel(0, 0, (256, 0, 0)),
                                     DrawPixel(0.5, 0, RED), DrawPixel(True, 0, RED),
                                     DrawPixel("1", 0, RED), Translate(True, 0),
                                     Translate(0, 0.5), "draw"],
                             ids=["out-of-bounds", "bad-color", "float", "bool", "str",
                                  "translate-bool", "translate-float", "unknown-op"])
    def test_a_refused_path_draws_nothing(self, bad):
        fb = Framebuffer(8, 8)
        with pytest.raises(InvalidArgument):
            apply_path([DrawPixel(1, 1, RED), Translate(1, 0), bad], fb)
        assert fb._pixels == [BLACK] * 64

    def test_inequivalent_paths_detected(self):
        assert not paths_equivalent([DrawPixel(1, 1, RED)], [DrawPixel(1, 2, RED)])
