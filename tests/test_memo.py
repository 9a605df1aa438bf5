"""The two-generation byte-bounded memo."""

from maskcompose.memo import Memo


def one_byte_each(key, value) -> int:
    return 1


class TestMemo:
    def test_miss_then_hit(self):
        memo = Memo(8, one_byte_each)
        assert memo.get("a") is None
        value = object()
        memo.put("a", value)
        assert memo.get("a") is value
        assert len(memo) == 1 and memo.charged_bytes == 1

    def test_full_generation_becomes_the_old_one(self):
        memo = Memo(8, one_byte_each)  # four entries per generation
        for k in range(4):
            memo.put(k, k)
        memo.put(4, 4)  # rotates: 0-3 old, 4 current
        assert memo.charged_bytes == 5
        assert [memo.get(k) for k in range(5)] == [0, 1, 2, 3, 4]
        for k in range(5, 12):  # two more rotations drop everything not asked for
            memo.put(k, k)
        assert memo.get(0) is None
        assert memo.charged_bytes <= memo.cap_bytes

    def test_old_hit_moves_back_and_survives_rotation(self):
        memo = Memo(8, one_byte_each)
        for k in range(5):
            memo.put(k, k)  # 0-3 old, 4 current
        assert memo.get(0) == 0  # back into the current generation
        for k in range(5, 7):
            memo.put(k, k)  # current: 4, 0, 5, 6
        memo.put(7, 7)  # rotates: 4, 0, 5, 6 old; 1-3 dropped
        assert memo.get(0) == 0
        assert memo.get(1) is None
        assert len(memo) == memo.charged_bytes <= memo.cap_bytes

    def test_replacing_a_key_charges_it_once(self):
        memo = Memo(8, lambda key, value: value)
        memo.put("a", 3)
        memo.put("a", 2)
        assert memo.get("a") == 2 and memo.charged_bytes == 2

    def test_entry_over_half_the_cap_is_not_stored(self):
        memo = Memo(8, lambda key, value: value)
        memo.put("big", 5)
        assert memo.get("big") is None and len(memo) == 0
