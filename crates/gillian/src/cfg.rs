//! Control-flow graphs over GIL procedure bodies.
//!
//! GIL control flow is fully determined by command indices: `Goto`/`GotoIf`
//! jump, `Return`/`Fail` terminate, everything else falls through. The CFG is
//! therefore cheap to build, and it is shared by every client that walks a
//! procedure body — the lint passes (`gillian-lint`), the abstract
//! interpreter (`gillian-absint`) and any future flow-sensitive analysis.
//! Out-of-range targets are recorded (the lint layer reports them as GL001)
//! and dropped from the edge lists, so downstream fixpoints always operate
//! on a well-formed graph.

use crate::gil::Cmd;

/// Successor indices of the command at `i`, with out-of-range targets kept
/// (callers report them and [`Cfg::new`] clamps before any traversal).
pub fn successors(i: usize, cmd: &Cmd) -> Vec<usize> {
    match cmd {
        Cmd::Goto(t) => vec![*t],
        Cmd::GotoIf {
            then_target,
            else_target,
            ..
        } => vec![*then_target, *else_target],
        Cmd::Return(_) | Cmd::Fail(_) => vec![],
        _ => vec![i + 1],
    }
}

/// The control-flow graph of one procedure body.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Number of commands in the body.
    pub len: usize,
    /// Valid successor indices per command, sorted and deduplicated.
    pub succs: Vec<Vec<usize>>,
    /// `(command, target)` pairs whose explicit jump target was out of range
    /// (dropped from `succs`). A fall-through edge past the end is not
    /// recorded here — it is a separate well-formedness condition.
    pub out_of_range: Vec<(usize, usize)>,
    /// Reachability from the entry command.
    pub reachable: Vec<bool>,
}

/// The predecessor lists of a [`Cfg`], in one flat vector: `preds[i]` is
/// the slice of commands with an edge to `i`, in increasing order.
#[derive(Clone, Debug)]
pub struct Preds {
    /// `list[start[i]..start[i + 1]]` are the predecessors of `i`.
    start: Vec<usize>,
    list: Vec<usize>,
}

impl std::ops::Index<usize> for Preds {
    type Output = [usize];

    fn index(&self, i: usize) -> &[usize] {
        &self.list[self.start[i]..self.start[i + 1]]
    }
}

impl Cfg {
    /// Builds the CFG of a body, clamping invalid explicit targets.
    pub fn new(body: &[Cmd]) -> Cfg {
        let len = body.len();
        let mut out_of_range = Vec::new();
        let mut succs: Vec<Vec<usize>> = Vec::with_capacity(len);
        for (i, cmd) in body.iter().enumerate() {
            let explicit = matches!(cmd, Cmd::Goto(_) | Cmd::GotoIf { .. });
            let mut valid = successors(i, cmd);
            valid.retain(|&t| {
                if t >= len && explicit {
                    out_of_range.push((i, t));
                }
                t < len
            });
            valid.sort_unstable();
            valid.dedup();
            succs.push(valid);
        }

        let mut reachable = vec![false; len];
        if len > 0 {
            let mut stack = vec![0usize];
            while let Some(i) = stack.pop() {
                if std::mem::replace(&mut reachable[i], true) {
                    continue;
                }
                stack.extend(succs[i].iter().copied());
            }
        }

        Cfg {
            len,
            succs,
            out_of_range,
            reachable,
        }
    }

    /// Predecessor lists (inverse of `succs`).
    pub fn preds(&self) -> Preds {
        // Count each command's predecessors, turn the counts into start
        // offsets, then place every edge; sources ascend, so each list does.
        let mut start = vec![0; self.len + 1];
        for &s in self.succs.iter().flatten() {
            start[s + 1] += 1;
        }
        for i in 0..self.len {
            start[i + 1] += start[i];
        }
        let mut list = vec![0; start[self.len]];
        let mut next = start[..self.len].to_vec();
        for (i, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                list[next[s]] = i;
                next[s] += 1;
            }
        }
        Preds { start, list }
    }

    /// Loop heads: targets of back edges found by a depth-first search from
    /// the entry. Widening points for any fixpoint over the graph.
    pub fn loop_heads(&self) -> Vec<bool> {
        let mut heads = vec![false; self.len];
        if self.len == 0 {
            return heads;
        }
        // Iterative DFS with an explicit on-stack marker.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; self.len];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = Color::Grey;
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            if *edge < self.succs[node].len() {
                let next = self.succs[node][*edge];
                *edge += 1;
                match color[next] {
                    Color::Grey => heads[next] = true,
                    Color::White => {
                        color[next] = Color::Grey;
                        stack.push((next, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
        heads
    }

    /// Strongly connected components (Tarjan), restricted to *cyclic* ones:
    /// components of two or more commands, or a single command with a
    /// self-edge. Each component is returned as a sorted list of indices.
    pub fn cyclic_sccs(&self) -> Vec<Vec<usize>> {
        struct Tarjan<'a> {
            cfg: &'a Cfg,
            index: Vec<Option<usize>>,
            lowlink: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            out: Vec<Vec<usize>>,
        }
        impl Tarjan<'_> {
            fn visit(&mut self, v: usize) {
                // Explicit stack to avoid recursion on long bodies.
                let mut call: Vec<(usize, usize)> = vec![(v, 0)];
                self.index[v] = Some(self.next);
                self.lowlink[v] = self.next;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
                while let Some(&mut (node, ref mut edge)) = call.last_mut() {
                    if *edge < self.cfg.succs[node].len() {
                        let w = self.cfg.succs[node][*edge];
                        *edge += 1;
                        match self.index[w] {
                            None => {
                                self.index[w] = Some(self.next);
                                self.lowlink[w] = self.next;
                                self.next += 1;
                                self.stack.push(w);
                                self.on_stack[w] = true;
                                call.push((w, 0));
                            }
                            Some(iw) => {
                                if self.on_stack[w] {
                                    self.lowlink[node] = self.lowlink[node].min(iw);
                                }
                            }
                        }
                    } else {
                        if self.lowlink[node] == self.index[node].unwrap() {
                            let mut comp = Vec::new();
                            while let Some(w) = self.stack.pop() {
                                self.on_stack[w] = false;
                                comp.push(w);
                                if w == node {
                                    break;
                                }
                            }
                            let cyclic = comp.len() > 1 || self.cfg.succs[node].contains(&node);
                            if cyclic {
                                comp.sort_unstable();
                                self.out.push(comp);
                            }
                        }
                        call.pop();
                        if let Some(&mut (parent, _)) = call.last_mut() {
                            self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[node]);
                        }
                    }
                }
            }
        }
        let mut t = Tarjan {
            cfg: self,
            index: vec![None; self.len],
            lowlink: vec![0; self.len],
            on_stack: vec![false; self.len],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for v in 0..self.len {
            if t.index[v].is_none() {
                t.visit(v);
            }
        }
        t.out.sort();
        t.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_solver::Expr;

    fn goto_if(guard: Expr, then_target: usize, else_target: usize) -> Cmd {
        Cmd::GotoIf {
            guard,
            then_target,
            else_target,
        }
    }

    #[test]
    fn straight_line_and_terminators() {
        let body = vec![Cmd::Skip, Cmd::Return(Expr::Int(0)), Cmd::Skip];
        let cfg = Cfg::new(&body);
        // The fall-through edge of the trailing `Skip` points past the end
        // and is dropped without being recorded as out-of-range.
        assert_eq!(cfg.succs, vec![vec![1], vec![], vec![]]);
        assert_eq!(cfg.reachable, vec![true, true, false]);
        assert!(cfg.out_of_range.is_empty());
    }

    #[test]
    fn out_of_range_targets_are_recorded_and_dropped() {
        let body = vec![Cmd::Goto(9)];
        let cfg = Cfg::new(&body);
        assert_eq!(cfg.out_of_range, vec![(0, 9)]);
        assert!(cfg.succs[0].is_empty());
    }

    #[test]
    fn loop_heads_and_cyclic_sccs() {
        // 0: i := 0; 1: if i goto 4 else 2; 2: i := 1; 3: goto 1; 4: return
        let body = vec![
            Cmd::Assign(gillian_solver::Symbol::new("i"), Expr::Int(0)),
            goto_if(Expr::pvar("i"), 4, 2),
            Cmd::Assign(gillian_solver::Symbol::new("i"), Expr::Int(1)),
            Cmd::Goto(1),
            Cmd::Return(Expr::pvar("i")),
        ];
        let cfg = Cfg::new(&body);
        let preds = cfg.preds();
        let pred_lists: Vec<&[usize]> = (0..body.len()).map(|i| &preds[i]).collect();
        let want: [&[usize]; 5] = [&[], &[0, 3], &[1], &[2], &[1]];
        assert_eq!(pred_lists, want);
        let heads = cfg.loop_heads();
        assert!(heads[1], "{heads:?}");
        assert_eq!(cfg.cyclic_sccs(), vec![vec![1, 2, 3]]);
        // Acyclic bodies report no cyclic SCC.
        let straight = Cfg::new(&[Cmd::Return(Expr::Int(0))]);
        assert!(straight.cyclic_sccs().is_empty());
    }
}
