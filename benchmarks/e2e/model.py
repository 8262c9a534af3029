"""Independent reference model of the document: a flat preorder list.

The document is two parallel lists, ``tags[i]`` and ``depths[i]`` for the
``i``-th element in document order -- nothing shared with ``repro``: own
parser, own serializer, own interpreter of the four update ops (with the
sequential index semantics ``CompressedXml.apply_batch`` documents) and
own label-path evaluator (child ``/``, descendant ``//``, ``*``,
positional ``[k]`` per context element).  The benchmark applies it
outside every timed region and compares the system's answers to it.
"""

import re

_TAG = re.compile(r"<(/?)([A-Za-z_][\w.\-:]*)\s*(/?)>")
_STEP = re.compile(r"(//|/)(\*|[A-Za-z_][\w.\-:]*)(?:\[(\d+)\])?")


class FlatDoc:
    def __init__(self, tags, depths):
        self.tags = tags
        self.depths = depths

    @classmethod
    def from_xml(cls, text):
        tags, depths, depth = [], [], 0
        for close, name, selfclose in _TAG.findall(text):
            if close:
                depth -= 1
                continue
            tags.append(name)
            depths.append(depth)
            if not selfclose:
                depth += 1
        return cls(tags, depths)

    def __len__(self):
        return len(self.tags)

    # -- structure -----------------------------------------------------
    def end(self, index):
        """One past the last element of ``index``'s subtree."""
        if index == 0:
            return len(self.tags)
        depths, floor = self.depths, self.depths[index]
        stop = index + 1
        while stop < len(depths) and depths[stop] > floor:
            stop += 1
        return stop

    def parent(self, index):
        if index == 0:
            return None
        depths, above = self.depths, self.depths[index] - 1
        while depths[index] != above:
            index -= 1
        return index

    def children(self, index):
        result, child, stop = [], index + 1, self.end(index)
        while child < stop:
            result.append(child)
            child = self.end(child)
        return result

    def next_sibling(self, index):
        if index == 0:
            return None
        after = self.end(index)
        if after < len(self.tags) and self.depths[after] == self.depths[index]:
            return after
        return None

    # -- updates -------------------------------------------------------
    def rename(self, index, tag):
        self.tags[index] = tag

    def _splice(self, at, fragment, depth):
        self.tags[at:at] = [tag for tag, _ in fragment]
        self.depths[at:at] = [depth + d for _, d in fragment]

    def insert(self, index, fragment):
        """Insert ``fragment`` as a sibling before element ``index``."""
        if index == 0:
            raise ValueError("insert before the root")
        self._splice(index, fragment, self.depths[index])

    def append_child(self, index, fragment):
        self._splice(self.end(index), fragment, self.depths[index] + 1)

    def delete(self, index, _payload=None):
        if index == 0:
            raise ValueError("delete the root")
        stop = self.end(index)
        del self.tags[index:stop]
        del self.depths[index:stop]

    def apply(self, kind, index, payload):
        """One write op, by its ``workloads.WRITE_KINDS`` name."""
        getattr(self, kind)(index, payload)

    # -- output --------------------------------------------------------
    def to_xml(self, index=0):
        """Compact XML of one subtree (``<a/>`` for leaves)."""
        tags, depths = self.tags, self.depths
        stop = self.end(index)
        parts, open_tags = [], []
        for i in range(index, stop):
            while len(open_tags) > depths[i] - depths[index]:
                parts.append(f"</{open_tags.pop()}>")
            if i + 1 < stop and depths[i + 1] > depths[i]:
                parts.append(f"<{tags[i]}>")
                open_tags.append(tags[i])
            else:
                parts.append(f"<{tags[i]}/>")
        while open_tags:
            parts.append(f"</{open_tags.pop()}>")
        return "".join(parts)

    # -- label paths ---------------------------------------------------
    def select(self, path):
        """Sorted element indices the path selects."""
        steps = _STEP.findall(path)
        if "".join(a + t + (f"[{k}]" if k else "") for a, t, k in steps) != path:
            raise ValueError(f"malformed path {path!r}")
        tags = self.tags
        ends = self._ends()
        contexts = None  # the virtual node above the root
        for axis, test, position in steps:
            found = set()
            for context in ([None] if contexts is None else contexts):
                if context is None:
                    candidates = [0] if axis == "/" else range(len(tags))
                elif axis == "/":
                    candidates, child = [], context + 1
                    while child < ends[context]:
                        candidates.append(child)
                        child = ends[child]
                else:
                    candidates = range(context + 1, ends[context])
                matches = [i for i in candidates
                           if test == "*" or tags[i] == test]
                if position:
                    matches = matches[int(position) - 1:int(position)]
                found.update(matches)
            contexts = sorted(found)
            if not contexts:
                break
        return contexts

    def _ends(self):
        """Subtree end of every element -- the next element at its depth
        or shallower -- in one right-to-left pass."""
        depths = self.depths
        ends = [0] * len(depths)
        stack = []  # later elements, depths increasing towards the top
        for i in range(len(depths) - 1, -1, -1):
            while stack and depths[stack[-1]] > depths[i]:
                stack.pop()
            ends[i] = stack[-1] if stack else len(depths)
            stack.append(i)
        return ends
