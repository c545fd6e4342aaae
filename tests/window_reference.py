"""Depth-first reference for the joint walk of ``nfsr_window_recover``.

Each sample's preimages are spread over its labels one input at a time and
the samples are walked recursively, one path per call. ``nfsr_window_recover``
spreads them with one shifted table lookup and walks a level at a time; the
tests hold the two equal.
"""

from fsglab.attack import _sample_plan
from fsglab.registers import preimage_table, window_geometry


def _spread(x, inputs):
    """The label bitset that preimage x sets at the (input, label) pairs."""
    return sum((x >> i & 1) << label for i, label in inputs)


def reference_window_joints(gen, blocks):
    """(joints, pruned, widths): the window's joint label bitsets in
    depth-first order, the paths that found no preimage, and how many paths
    reach each sample."""
    families, _, window = window_geometry(gen.register, gen.taps)
    lengths = [ts.register_length for _, ts in families]
    offsets = [sum(lengths[:r]) for r in range(len(lengths))]
    plan = _sample_plan([
        [off + pos + s for off, (_, ts) in zip(offsets, families) for pos in ts.positions]
        for s in range(window)
    ])
    table = preimage_table(gen.filter)
    groups = []
    for sample, (_, fixed, fresh) in enumerate(plan):
        members = table.get(blocks[sample])
        if members is None:
            groups.append(None)
            continue
        buckets = {}
        for x in members:
            buckets.setdefault(_spread(x, fixed), []).append(_spread(x, fresh))
        groups.append(buckets)

    pruned = 0
    joints = []
    widths = [0] * window

    def dfs(sample, path):
        nonlocal pruned
        if sample == window:
            joints.append(path)
            return
        widths[sample] += 1
        if groups[sample] is None:
            pruned += 1
            return
        filtered = groups[sample].get(path & plan[sample][0], ())
        if not filtered:
            pruned += 1
        for spread in filtered:
            dfs(sample + 1, path | spread)

    dfs(0, 0)
    return joints, pruned, widths
