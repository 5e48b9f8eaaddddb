"""Network simplex for the assignment polytope when mu is row-constant,
the only LP solver in the package.

With mu_ij = d_i (the battle polytope: d_i is agent i's damage), the
substitution x_ij = d_i beta_ij turns

    { beta >= 0,  sum_j beta_ij <= 1,  sum_i d_i beta_ij <= u_j }

into an uncapacitated transportation problem: agent i ships at most d_i
units, task j takes at most u_j, and a root node carries both slacks
(arcs agent -> root and root -> task). Every basis is a spanning tree
over the live agents, the tasks and the root (Ahuja, Magnanti & Orlin,
Network Flows, 1993, ch. 11), so a pivot needs no basis inverse and makes
no BLAS call: one reduced-cost broadcast and argmax, a walk up the tree
to the entering arc's cycle, one splice of the cut subtree in the
preorder array and one potential shift over that subtree.

Entering arcs follow the rule of the revised simplex kept as the tests'
reference (`PolytopeLp` in `tests/lp_reference.py`): Dantzig pricing on
the reduced costs of beta (the x costs times d_i), ties to the lowest id
in its variable order, and the same tolerance. The leaving arc follows
Cunningham's rule for strongly feasible trees (Cunningham 1976, "A
network simplex method", Math. Programming 11): every tree arc without
flow points away from the root, as in the start tree below, and the
leaving arc is the first blocking arc met when the cycle is walked from
its apex in the entering arc's direction. (Ahuja, Magnanti & Orlin
state the mirror image: flow sent toward the root, last blocking arc.)
Strongly feasible trees cannot cycle on degenerate pivots, so no Bland
fallback is needed.

Every solve starts from a greedy tree built from its own weights, a
crash start for transportation problems (Glover, Karney, Klingman &
Napier 1974, Management Science 20(5)): agents, best weight first, fill
their best open tasks, and what they cannot place stays on their slack
arcs. The tree is strongly feasible, and with no positive weight it is
the all-slack tree. Frank-Wolfe keeps one object per constraint set,
but its linear subproblems jump between distant vertices, so no solve
starts from the previous one's tree. Agents with d_i = 0 ship nothing
and are left out of the flow: each takes its best task if that task's
weight is positive.
"""
from __future__ import annotations

import numpy as np

from .types import SolverFailure

_TOL = 1e-9


class TransportLp:
    """Network simplex for one row-constant constraint set, reused by
    every solve on that set.

    `d` holds each agent's contribution (the constant row of mu). Nodes:
    live agents (d_i > 0, in index order) 0..na-1, tasks na..na+m-1 and
    the root na+m. Every arc leaves an agent or the root and enters a
    task or the root, so the tree arc of a non-root node v points to its
    parent iff v is an agent; `flow[v]` is that arc's flow in x units.
    `order` lists the nodes in preorder, `pre` is its inverse and `size`
    holds subtree sizes: a is an ancestor of v iff
    pre[a] <= pre[v] < pre[a] + size[a]. Each solve rebuilds these from
    its greedy start tree and leaves its last tree in them. `pivots` counts
    the pivots of every solve so far.
    """

    def __init__(self, d: np.ndarray, u: np.ndarray):
        self.d = np.asarray(d, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.n, self.m = self.d.size, self.u.size
        self.live = np.flatnonzero(self.d > 0)
        self.dead = np.flatnonzero(self.d <= 0)
        self.dl = self.d[self.live]
        self.na = self.live.size
        self.root = self.na + self.m
        self.supply = self.dl.tolist() + (-self.u).tolist() + [self.u.sum() - self.dl.sum()]
        self.pivots = 0

    def _refresh_flows(self, below: list) -> np.ndarray:
        """Recompute every tree arc's flow from the supplies, leaves first.

        `below` lists in preorder the nodes to add into their parents:
        every non-root node, or just those not hanging from the root.
        """
        parent = self.parent
        net = self.supply.copy()
        for v in reversed(below):
            net[parent[v]] += net[v]
        # an agent's arc carries its subtree's supply out, a task's brings
        # its subtree's demand in
        flow = np.array(net)
        flow[self.na:] *= -1.0
        np.maximum(flow, 0.0, out=flow)
        self.flow = flow.tolist()
        return flow

    def _crash(self, weights: np.ndarray, cost: np.ndarray) -> np.ndarray:
        """Build the greedy start tree for the live agents' `weights` (and
        their x costs `cost`) and return its potentials.

        Agents go in descending order of their best weight, stable. Each
        fills its best open task of positive weight. If it fits, it hangs
        below the task. If it would overfill the task, it sends the task's
        room, closes the task, takes it as a child and goes on to its next
        best open task. What it cannot place stays on its slack arc to the
        root. So every agent arc carries flow and every arc without flow
        is a task arc hanging from the root, pointing away from it: the
        tree is strongly feasible. With nothing placed it is the
        all-slack tree.
        """
        na, root = self.na, self.root
        parent = [root] * root + [-1]
        kids = {}
        open_w = np.where(self.u > 0.0, weights, -np.inf)
        first = open_w.argmax(axis=1)
        # an agent whose best open task has no positive weight places nothing
        placing = np.flatnonzero(open_w[np.arange(na), first] > _TOL)
        if placing.size:
            ranked = placing[np.argsort(-weights.max(axis=1)[placing], kind="stable")]
            room = self.u.tolist()
            first, dl = first.tolist(), self.dl.tolist()
            for i in ranked.tolist():
                rest, row, j = dl[i], open_w[i], first[i]
                tol = _TOL * rest
                while True:
                    if row[j] <= _TOL:  # task j has closed: take the next best
                        j = int(row.argmax())
                        if row[j] <= _TOL:
                            break
                    t, r = na + j, room[j]
                    if rest > r + tol:
                        parent[t] = i
                        kids.setdefault(i, []).append(t)
                        rest -= r
                        open_w[:, j] = -np.inf
                        continue
                    parent[i] = t
                    kids.setdefault(t, []).append(i)
                    room[j] = r - rest
                    if room[j] <= tol:
                        open_w[:, j] = -np.inf
                    break

        # preorder, the root's children in index order, each followed by
        # its subtree; a potential makes its node's tree arc's reduced
        # cost 0, and `deep` lists the nodes below the root's children
        order, deep, phi = [root], [], [0.0] * (root + 1)
        start = 0
        for top in sorted(v for v in kids if parent[v] == root):
            order += [v for v in range(start, top + 1) if parent[v] == root]
            start = top + 1
            stack = kids[top][::-1]
            while stack:
                v = stack.pop()
                order.append(v)
                deep.append(v)
                p = parent[v]
                phi[v] = phi[p] - cost[p, v - na] if p < na else phi[p] + cost[v, p - na]
                stack += reversed(kids.get(v, ()))
        order += [v for v in range(start, root) if parent[v] == root]
        pre = [0] * (root + 1)
        for k, v in enumerate(order):
            pre[v] = k
        size = [1] * root + [root + 1]
        for v in reversed(deep):
            size[parent[v]] += size[v]
        self.parent, self.order, self.pre, self.size = parent, order, pre, size
        self._refresh_flows(deep)
        return np.array(phi)

    def solve(self, weights: np.ndarray, max_pivots: int | None = None) -> np.ndarray:
        """max <weights, beta> over the polytope; returns beta (n, m).

        Starts from the greedy tree of `_crash`. Raises SolverFailure if
        the pivot budget is exhausted.
        """
        weights = np.asarray(weights, dtype=float)
        n, m, na, root = self.n, self.m, self.na, self.root
        if max_pivots is None:
            max_pivots = 100 * (n + m) + 20 * max(n, m) ** 2 + 1000
        beta = np.zeros((n, m))
        if self.dead.size:
            w_dead = weights[self.dead]
            best = w_dead.argmax(axis=1)
            takes = w_dead[np.arange(best.size), best] > _TOL
            beta[self.dead[takes], best[takes]] = 1.0
            weights = weights[self.live]
        if na == 0:
            return beta

        dl, d_col = self.dl, self.dl[:, None]
        cost = weights / d_col
        phi = self._crash(weights, cost)
        parent, flow, order = self.parent, self.flow, self.order
        pre, size = self.pre, self.size
        phi_a, phi_t = phi[:na], phi[na:root]
        n_struct = na * m
        # reduced costs of beta (x costs times d_i) in the reference's
        # variable order: agent-task arcs, agent slacks, task slacks. The arcs' are
        # value - y_i with value_ij = w_ij + d_i phi_j, which changes only
        # in the columns of tasks whose potential moved.
        red = np.empty(n_struct + na + m)
        red_struct = red[:n_struct].reshape(na, m)
        red_agent = red[n_struct:n_struct + na]
        red_task = red[n_struct + na:]
        value = np.multiply(d_col, phi_t)
        value += weights
        moved_tasks = []
        for _ in range(max_pivots):
            if len(moved_tasks) > 4:  # a whole pass beats many column passes
                np.multiply(d_col, phi_t, out=value)
                value += weights
            else:
                for j in moved_tasks:
                    np.add(weights[:, j], dl * phi_t[j], out=value[:, j])
            y = dl * phi_a
            np.subtract(value, y[:, None], out=red_struct)
            np.negative(y, out=red_agent)
            red_task[:] = phi_t
            entering = int(red.argmax())
            if red[entering] <= _TOL:
                break

            if entering < n_struct:
                tail, j = divmod(entering, m)
                head = na + j
                gain = cost[tail, j] - phi[tail] + phi[head]
            elif entering < n_struct + na:
                tail, head = entering - n_struct, root
                gain = -phi[tail]
            else:
                tail, head = root, entering - n_struct
                gain = phi[head]
            # ratio ties within the tolerance the reference applies to beta
            tol = _TOL * (dl[tail] if tail < na else 1.0)

            # the cycle: tail and head walk up to their common ancestor
            pre_head = pre[head]
            tail_path = []
            a = tail
            while not pre[a] <= pre_head < pre[a] + size[a]:
                tail_path.append(a)
                a = parent[a]
            apex = a
            head_path = []
            b = head
            while b != apex:
                head_path.append(b)
                b = parent[b]

            # flow runs tail -> head, up the head path and down the tail
            # path; agent arcs on the tail path and task arcs on the head
            # path carry it backwards
            delta = min([flow[v] for v in tail_path if v < na]
                        + [flow[v] for v in head_path if v >= na], default=None)
            if delta is None:
                raise SolverFailure("unbounded direction on a bounded polytope")
            # first blocking arc from the apex along the cycle: tail path
            # from its top, then head path from the head
            for k in range(len(tail_path) - 1, -1, -1):
                v = tail_path[k]
                if v < na and flow[v] <= delta + tol:
                    cut, path, other, phi_shift = k, tail_path, head_path, gain
                    break
            else:
                for k, v in enumerate(head_path):
                    if v >= na and flow[v] <= delta + tol:
                        cut, path, other, phi_shift = k, head_path, tail_path, -gain
                        break
            for v in tail_path:
                flow[v] += -delta if v < na else delta
            for v in head_path:
                flow[v] += delta if v < na else -delta

            # re-root the cut subtree at the entering end inside it and
            # hang it below the other end
            leaving = path[cut]
            inner, outer = (head, tail) if path is head_path else (tail, head)
            start, count = pre[leaving], size[leaving]
            moved = order[start:start + count]
            phi[np.array(moved)] += phi_shift
            moved_tasks = [v - na for v in moved if v >= na]
            chain = path[:cut + 1]  # inner ... leaving
            lo, hi = pre[inner], pre[inner] + size[inner]
            block = order[lo:hi]
            for v in chain[1:]:
                v_lo, v_hi = pre[v], pre[v] + size[v]
                block += order[v_lo:lo] + order[hi:v_hi]
                lo, hi = v_lo, v_hi
            sizes = [size[v] for v in chain]
            size[inner] = count
            for k in range(1, len(chain)):
                size[chain[k]] = count - sizes[k - 1]
            for k in range(len(chain) - 1, 0, -1):
                parent[chain[k]] = chain[k - 1]
                flow[chain[k]] = flow[chain[k - 1]]
            parent[inner] = outer
            flow[inner] = delta
            for v in path[cut + 1:]:
                size[v] -= count
            for v in other:
                size[v] += count

            # splice the re-rooted block in right after its new parent
            at = pre[outer]
            if at < start:
                lo, block = at + 1, block + order[at + 1:start]
            else:
                lo, block = start, order[start + count:at + 1] + block
            order[lo:lo + len(block)] = block
            for k, v in enumerate(block, lo):
                pre[v] = k
            self.pivots += 1
        else:
            raise SolverFailure(f"pivot budget {max_pivots} exhausted")

        # incremental flows drift; recompute them at the optimum
        flow = self._refresh_flows(order[1:])
        par = np.array(parent[:root])
        # an agent-task arc sits at an agent below a task or a task below an agent
        agents = np.flatnonzero(par[:na] < root)
        tasks = par[agents] - na
        beta[self.live[agents], tasks] = flow[agents] / dl[agents]
        tasks = np.flatnonzero(par[na:] < na)
        agents = par[na + tasks]
        beta[self.live[agents], tasks] = flow[na + tasks] / dl[agents]
        return np.clip(beta, 0.0, 1.0)
