//! The symbolic Rust heap (§3 of the paper).
//!
//! Objects are hybrid trees of *structural nodes* (typed, layout-independent:
//! single symbolic values, uninitialised or framed-off regions, and structs
//! with one child per field) and *laid-out nodes* (array-like regions indexed
//! in multiples of an indexing type, holding segments with symbolic bounds —
//! Fig. 2). Loads and stores navigate projections, destructuring symbolic
//! struct values on demand and splitting/merging laid-out segments, all
//! without ever consulting a concrete layout.

use crate::types::{Address, ProjElem, TyId, Types, PTR_FIELD, PTR_OFFSET, PTR_TAG};
use gillian_engine::PureCtx;
use gillian_solver::{simplify, Expr};
use rust_ir::Ty;
use std::collections::BTreeMap;

/// Errors produced by heap operations.
#[derive(Clone, Debug)]
pub enum HeapError {
    /// The resource is not present in the heap (it may be framed off or
    /// hidden inside a predicate/borrow); the hint is the pointer whose
    /// resource is needed, so the engine can attempt recovery.
    Missing { msg: String, hint: Expr },
    /// A genuine error (use of uninitialised memory, double free, ...).
    Error(String),
    /// The operation is inconsistent with the current state (e.g. producing
    /// overlapping resources); the path vanishes.
    Vanish,
}

impl HeapError {
    fn missing(msg: impl Into<String>, hint: Expr) -> Self {
        HeapError::Missing {
            msg: msg.into(),
            hint,
        }
    }
}

/// Result type for heap operations.
pub type HeapResult<T> = Result<T, HeapError>;

/// The content of one laid-out segment.
#[derive(Clone, Debug, PartialEq)]
pub enum SegData {
    /// Uninitialised memory.
    Uninit,
    /// A sequence of values (one per element of the indexing type).
    Vals(Expr),
}

/// A laid-out segment covering `[start, end)` in elements of the indexing
/// type.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    pub start: Expr,
    pub end: Expr,
    pub data: SegData,
}

/// A node of the hybrid tree representation.
#[derive(Clone, Debug, PartialEq)]
pub enum HeapNode {
    /// Uninitialised memory of the node's type.
    Uninit,
    /// Memory that has been framed off (its resource is elsewhere).
    Missing,
    /// A single symbolic value of the node's type.
    Val(Expr),
    /// A struct with one child per field (in declaration order — field
    /// *identity*, not layout order).
    Struct(String, Vec<HeapNode>),
    /// A laid-out (array-like) node.
    Array { elem: Ty, segs: Vec<Segment> },
}

/// One heap object (allocation).
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// The type the allocation was made at.
    pub ty: Ty,
    pub node: HeapNode,
}

/// The symbolic heap: a finite map from object locations to objects.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Heap {
    objects: BTreeMap<u64, Object>,
    next_loc: u64,
}

impl Heap {
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Is the heap observably empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of live allocations (for diagnostics).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    fn fresh_loc(&mut self) -> u64 {
        let l = self.next_loc;
        self.next_loc += 1;
        l
    }

    // -----------------------------------------------------------------
    // Pointer resolution
    // -----------------------------------------------------------------

    /// Resolves a pointer expression to an address, looking through
    /// `ptr_field`/`ptr_offset` wrappers and path-condition equalities.
    pub fn resolve_ptr(&self, e: &Expr, ctx: &PureCtx<'_>, types: &Types) -> Option<Address> {
        self.resolve_ptr_depth(e, ctx, types, 8)
    }

    #[allow(clippy::only_used_in_recursion)]
    fn resolve_ptr_depth(
        &self,
        e: &Expr,
        ctx: &PureCtx<'_>,
        types: &Types,
        depth: usize,
    ) -> Option<Address> {
        if depth == 0 {
            return None;
        }
        let e = simplify(e);
        if let Some(addr) = Address::from_expr(&e) {
            return Some(addr);
        }
        if let Expr::Ctor(tag, args) = &e {
            if tag.as_str() == PTR_FIELD && args.len() == 3 {
                let base = self.resolve_ptr_depth(&args[0], ctx, types, depth - 1)?;
                let ty = TyId(args[1].as_int()? as u32);
                let idx = args[2].as_int()? as usize;
                return Some(base.with_field(ty, idx));
            }
            if tag.as_str() == PTR_OFFSET && args.len() == 3 {
                let base = self.resolve_ptr_depth(&args[0], ctx, types, depth - 1)?;
                let ty = TyId(args[1].as_int()? as u32);
                let count = args[2].clone();
                // Merge with a trailing index projection of the same type.
                let mut addr = base;
                if let Some(ProjElem::Index(t, off)) = addr.proj.last().cloned() {
                    if t == ty {
                        addr.proj.pop();
                        return Some(addr.with_index(ty, simplify(&Expr::add(off, count))));
                    }
                }
                return Some(addr.with_index(ty, count));
            }
        }
        // Look for a path-condition equality that gives the pointer a
        // concrete form.
        let path = ctx.ctx.path();
        for fact in &path {
            if let Expr::BinOp(gillian_solver::BinOp::Eq, a, b) = fact.as_ref() {
                if a.as_ref() == &e && is_ptr_shaped(b) {
                    return self.resolve_ptr_depth(b, ctx, types, depth - 1);
                }
                if b.as_ref() == &e && is_ptr_shaped(a) {
                    return self.resolve_ptr_depth(a, ctx, types, depth - 1);
                }
            }
        }
        // Fall back to solver-provable equalities (e.g. through constructor
        // injectivity): any pointer-shaped term of the path condition that
        // must equal `e` resolves it.
        let candidates = path.iter().filter_map(|fact| match fact.as_ref() {
            Expr::BinOp(gillian_solver::BinOp::Eq, a, b) => {
                if is_ptr_shaped(b) {
                    Some((a, b))
                } else if is_ptr_shaped(a) {
                    Some((b, a))
                } else {
                    None
                }
            }
            _ => None,
        });
        for (other, ptr_side) in candidates {
            if ctx.must_equal(other, &e) {
                if let Some(addr) = self.resolve_ptr_depth(ptr_side, ctx, types, depth - 1) {
                    return Some(addr);
                }
            }
        }
        None
    }

    /// Resolves a pointer, giving it a fresh abstract location if it has none
    /// yet. Used by producers. Returns the address and the new equality fact.
    pub fn resolve_ptr_or_bind(
        &mut self,
        e: &Expr,
        ctx: &mut PureCtx<'_>,
        types: &Types,
    ) -> (Address, Vec<Expr>) {
        if let Some(addr) = self.resolve_ptr(e, ctx, types) {
            return (addr, vec![]);
        }
        // Peel wrappers so that the *base* gets the fresh location.
        let e = simplify(e);
        if let Expr::Ctor(tag, args) = &e {
            if (tag.as_str() == PTR_FIELD || tag.as_str() == PTR_OFFSET) && args.len() == 3 {
                let (base, mut facts) = self.resolve_ptr_or_bind(&args[0], ctx, types);
                let ty = TyId(args[1].as_int().unwrap_or(0) as u32);
                let addr = if tag.as_str() == PTR_FIELD {
                    base.with_field(ty, args[2].as_int().unwrap_or(0) as usize)
                } else {
                    base.with_index(ty, args[2].clone())
                };
                facts.push(Expr::eq(e.clone(), addr.to_expr()));
                return (addr, facts);
            }
        }
        let loc = self.fresh_loc();
        let addr = Address::base(loc);
        let fact = Expr::eq(e, addr.to_expr());
        (addr, vec![fact])
    }

    // -----------------------------------------------------------------
    // Allocation
    // -----------------------------------------------------------------

    /// Allocates a new object of type `ty`, initially uninitialised.
    pub fn alloc(&mut self, ty: Ty) -> Address {
        let loc = self.fresh_loc();
        self.objects.insert(
            loc,
            Object {
                ty,
                node: HeapNode::Uninit,
            },
        );
        Address::base(loc)
    }

    /// Allocates an array-like object of `count` elements of type `elem`.
    pub fn alloc_array(&mut self, elem: Ty, count: Expr) -> Address {
        let loc = self.fresh_loc();
        self.objects.insert(
            loc,
            Object {
                ty: elem.clone(),
                node: HeapNode::Array {
                    elem,
                    segs: vec![Segment {
                        start: Expr::Int(0),
                        end: count,
                        data: SegData::Uninit,
                    }],
                },
            },
        );
        Address::base(loc)
    }

    /// Frees a whole object. The object must be fully owned (no missing
    /// parts) — reading out whatever value is there is not required.
    pub fn free(&mut self, addr: &Address, hint: Expr) -> HeapResult<()> {
        if !addr.proj.is_empty() {
            return Err(HeapError::Error("free of an interior pointer".to_owned()));
        }
        match self.objects.remove(&addr.loc) {
            Some(obj) => {
                if node_has_missing(&obj.node) {
                    // Put it back: we do not own the whole allocation.
                    self.objects.insert(addr.loc, obj);
                    Err(HeapError::missing("free of partially-owned object", hint))
                } else {
                    Ok(())
                }
            }
            None => Err(HeapError::missing("free of unknown object", hint)),
        }
    }

    /// Re-types an array allocation (e.g. a `u8` byte allocation being used
    /// to store values of type `T`, as the standard-library `Vec` does). Only
    /// allowed while the allocation is entirely uninitialised.
    pub fn retype_array(
        &mut self,
        addr: &Address,
        new_elem: Ty,
        new_count: Expr,
        hint: Expr,
    ) -> HeapResult<()> {
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("retype of unknown object", hint.clone()))?;
        match &obj.node {
            HeapNode::Array { segs, .. } if segs.iter().all(|s| s.data == SegData::Uninit) => {
                obj.ty = new_elem.clone();
                obj.node = HeapNode::Array {
                    elem: new_elem,
                    segs: vec![Segment {
                        start: Expr::Int(0),
                        end: new_count,
                        data: SegData::Uninit,
                    }],
                };
                Ok(())
            }
            HeapNode::Array { .. } => Err(HeapError::Error(
                "cannot re-type an array that already holds values".to_owned(),
            )),
            _ => Err(HeapError::Error("retype of a non-array object".to_owned())),
        }
    }

    // -----------------------------------------------------------------
    // Typed loads and stores
    // -----------------------------------------------------------------

    /// Reads a value of type `ty` at the address.
    pub fn load(
        &mut self,
        addr: &Address,
        ty: &Ty,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<Expr> {
        let hint = addr.to_expr();
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => read_node(n, ty, types, ctx, &hint),
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => {
                let vals = read_range(segs, &offset, &count, ctx, &hint)?;
                Ok(simplify(&Expr::seq_at(vals, Expr::Int(0))))
            }
        }
    }

    /// Reads a value of type `ty` at the address in a *move* context: the
    /// memory is deinitialised afterwards (§3.2 — loads in a move context
    /// deinitialise the source).
    pub fn move_out(
        &mut self,
        addr: &Address,
        ty: &Ty,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<Expr> {
        let hint = addr.to_expr();
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => {
                let v = read_node(n, ty, types, ctx, &hint)?;
                *n = HeapNode::Uninit;
                Ok(v)
            }
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => {
                let idx = isolate(segs, &offset, &count, ctx, &hint)?;
                match segs[idx].data.clone() {
                    SegData::Vals(vs) => {
                        segs[idx].data = SegData::Uninit;
                        Ok(simplify(&Expr::seq_at(vs, Expr::Int(0))))
                    }
                    SegData::Uninit => Err(HeapError::Error(
                        "move out of uninitialised array memory".to_owned(),
                    )),
                }
            }
        }
    }

    /// Writes a value of type `ty` at the address.
    pub fn store(
        &mut self,
        addr: &Address,
        ty: &Ty,
        value: Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => {
                if matches!(n, HeapNode::Missing) {
                    return Err(HeapError::missing("store to framed-off memory", hint));
                }
                let _ = ty;
                *n = HeapNode::Val(value);
                Ok(())
            }
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => write_range(
                segs,
                &offset,
                &count,
                SegData::Vals(Expr::seq(vec![value])),
                ctx,
                &hint,
            ),
        }
    }

    // -----------------------------------------------------------------
    // Core-predicate support: consume/produce of typed points-to, uninit and
    // slices.
    // -----------------------------------------------------------------

    /// Consumes `addr ↦_ty v`, removing the resource and returning `v`.
    pub fn take(
        &mut self,
        addr: &Address,
        ty: &Ty,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<Expr> {
        let hint = addr.to_expr();
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => {
                let v = read_node(n, ty, types, ctx, &hint)?;
                *n = HeapNode::Missing;
                Ok(v)
            }
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => {
                let vals = take_range(segs, &offset, &count, ctx, &hint)?;
                Ok(simplify(&Expr::seq_at(vals, Expr::Int(0))))
            }
        }
    }

    /// Produces `addr ↦_ty v`.
    pub fn give(
        &mut self,
        addr: &Address,
        ty: &Ty,
        value: Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        self.ensure_object(addr, ty, types);
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .expect("object just ensured");
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => match n {
                HeapNode::Missing | HeapNode::Uninit => {
                    *n = HeapNode::Val(value);
                    Ok(())
                }
                _ => Err(HeapError::Vanish),
            },
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => give_range(
                segs,
                &offset,
                &count,
                SegData::Vals(Expr::seq(vec![value])),
                ctx,
            ),
        }
    }

    /// Consumes `uninit(addr, ty)`.
    pub fn take_uninit(
        &mut self,
        addr: &Address,
        _ty: &Ty,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => match n {
                HeapNode::Uninit => {
                    *n = HeapNode::Missing;
                    Ok(())
                }
                HeapNode::Missing => Err(HeapError::missing("uninit resource framed off", hint)),
                _ => Err(HeapError::Error("memory is initialised".to_owned())),
            },
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => {
                take_uninit_range(segs, &offset, &count, ctx, &hint)?;
                Ok(())
            }
        }
    }

    /// Produces `uninit(addr, ty)`.
    pub fn give_uninit(
        &mut self,
        addr: &Address,
        ty: &Ty,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        self.ensure_object(addr, ty, types);
        let obj = self
            .objects
            .get_mut(&addr.loc)
            .expect("object just ensured");
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::Struct(n) => match n {
                HeapNode::Missing => {
                    *n = HeapNode::Uninit;
                    Ok(())
                }
                _ => Err(HeapError::Vanish),
            },
            NodeRef::ArrayRange {
                segs,
                offset,
                count,
                ..
            } => give_range(segs, &offset, &count, SegData::Uninit, ctx),
        }
    }

    /// Consumes a slice of `count` values of type `elem` starting at `addr`,
    /// returning the sequence of values.
    pub fn take_slice(
        &mut self,
        addr: &Address,
        elem: &Ty,
        count: &Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<Expr> {
        let hint = addr.to_expr();
        let addr_indexed = ensure_index_proj(addr, elem, types);
        let obj = self
            .objects
            .get_mut(&addr_indexed.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr_indexed.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::ArrayRange { segs, offset, .. } => {
                take_range(segs, &offset, count, ctx, &hint)
            }
            NodeRef::Struct(_) => Err(HeapError::Error(
                "slice access into a structural node".to_owned(),
            )),
        }
    }

    /// Produces a slice of values.
    pub fn give_slice(
        &mut self,
        addr: &Address,
        elem: &Ty,
        count: &Expr,
        vals: Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        let addr_indexed = ensure_index_proj(addr, elem, types);
        self.ensure_array_object(&addr_indexed, elem);
        let obj = self
            .objects
            .get_mut(&addr_indexed.loc)
            .expect("object just ensured");
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr_indexed.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::ArrayRange { segs, offset, .. } => {
                give_range(segs, &offset, count, SegData::Vals(vals), ctx)
            }
            NodeRef::Struct(_) => Err(HeapError::Error(
                "slice production into a structural node".to_owned(),
            )),
        }
    }

    /// Consumes an uninitialised slice.
    pub fn take_uninit_slice(
        &mut self,
        addr: &Address,
        elem: &Ty,
        count: &Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        let addr_indexed = ensure_index_proj(addr, elem, types);
        let obj = self
            .objects
            .get_mut(&addr_indexed.loc)
            .ok_or_else(|| HeapError::missing("no object at location", base_hint(addr)))?;
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr_indexed.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::ArrayRange { segs, offset, .. } => {
                take_uninit_range(segs, &offset, count, ctx, &hint)
            }
            NodeRef::Struct(_) => Err(HeapError::Error(
                "slice access into a structural node".to_owned(),
            )),
        }
    }

    /// Produces an uninitialised slice.
    pub fn give_uninit_slice(
        &mut self,
        addr: &Address,
        elem: &Ty,
        count: &Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let hint = addr.to_expr();
        let addr_indexed = ensure_index_proj(addr, elem, types);
        self.ensure_array_object(&addr_indexed, elem);
        let obj = self
            .objects
            .get_mut(&addr_indexed.loc)
            .expect("object just ensured");
        let node = navigate(
            &mut obj.node,
            &obj.ty.clone(),
            &addr_indexed.proj,
            types,
            ctx,
            &hint,
        )?;
        match node {
            NodeRef::ArrayRange { segs, offset, .. } => {
                give_range(segs, &offset, count, SegData::Uninit, ctx)
            }
            NodeRef::Struct(_) => Err(HeapError::Error(
                "slice production into a structural node".to_owned(),
            )),
        }
    }

    /// Copies `count` elements of type `elem` from `src` to `dst` (the model
    /// of `ptr::copy_nonoverlapping`, used when a vector grows).
    pub fn copy_slice(
        &mut self,
        src: &Address,
        dst: &Address,
        elem: &Ty,
        count: &Expr,
        types: &Types,
        ctx: &mut PureCtx<'_>,
    ) -> HeapResult<()> {
        let vals = self.take_slice(src, elem, count, types, ctx)?;
        // Reading does not consume on a copy: put the source back.
        self.give_slice(src, elem, count, vals.clone(), types, ctx)?;
        // Overwrite the destination (which must currently be uninitialised).
        self.take_uninit_slice(dst, elem, count, types, ctx)?;
        self.give_slice(dst, elem, count, vals, types, ctx)
    }

    // -----------------------------------------------------------------
    // Helpers
    // -----------------------------------------------------------------

    fn ensure_object(&mut self, addr: &Address, ty: &Ty, types: &Types) {
        if self.objects.contains_key(&addr.loc) {
            return;
        }
        self.next_loc = self.next_loc.max(addr.loc + 1);
        let node = match addr.proj.first() {
            None => HeapNode::Missing,
            Some(ProjElem::Field(struct_ty, _)) => {
                let sty = types.resolve(*struct_ty);
                match types.struct_info(&sty) {
                    Some((tag, fields)) => {
                        HeapNode::Struct(tag, vec![HeapNode::Missing; fields.len()])
                    }
                    None => HeapNode::Missing,
                }
            }
            Some(ProjElem::Index(elem_ty, _)) => HeapNode::Array {
                elem: types.resolve(*elem_ty),
                segs: vec![],
            },
        };
        let root_ty = match addr.proj.first() {
            Some(ProjElem::Field(struct_ty, _)) => types.resolve(*struct_ty),
            Some(ProjElem::Index(elem_ty, _)) => types.resolve(*elem_ty),
            None => ty.clone(),
        };
        self.objects.insert(addr.loc, Object { ty: root_ty, node });
    }

    fn ensure_array_object(&mut self, addr: &Address, elem: &Ty) {
        if self.objects.contains_key(&addr.loc) {
            return;
        }
        self.next_loc = self.next_loc.max(addr.loc + 1);
        self.objects.insert(
            addr.loc,
            Object {
                ty: elem.clone(),
                node: HeapNode::Array {
                    elem: elem.clone(),
                    segs: vec![],
                },
            },
        );
    }
}

/// If the address has no trailing index projection, add `+elem 0` so that
/// slice operations always land on a laid-out node.
fn ensure_index_proj(addr: &Address, elem: &Ty, types: &Types) -> Address {
    match addr.proj.last() {
        Some(ProjElem::Index(_, _)) => addr.clone(),
        _ => addr.clone().with_index(types.intern(elem), Expr::Int(0)),
    }
}

fn base_hint(addr: &Address) -> Expr {
    Address::base(addr.loc).to_expr()
}

fn is_ptr_shaped(e: &Expr) -> bool {
    matches!(e, Expr::Ctor(tag, _) if tag.as_str() == PTR_TAG || tag.as_str() == PTR_FIELD || tag.as_str() == PTR_OFFSET)
}

fn node_has_missing(node: &HeapNode) -> bool {
    match node {
        HeapNode::Missing => true,
        HeapNode::Struct(_, fields) => fields.iter().any(node_has_missing),
        HeapNode::Array { segs, .. } => segs.is_empty(),
        _ => false,
    }
}

/// The result of navigating a projection: either a structural node or a
/// range within a laid-out node.
enum NodeRef<'a> {
    Struct(&'a mut HeapNode),
    ArrayRange {
        segs: &'a mut Vec<Segment>,
        offset: Expr,
        count: Expr,
    },
}

/// Navigates a projection, destructuring nodes as needed.
fn navigate<'a>(
    node: &'a mut HeapNode,
    node_ty: &Ty,
    proj: &[ProjElem],
    types: &Types,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<NodeRef<'a>> {
    match proj.first() {
        None => Ok(NodeRef::Struct(node)),
        Some(ProjElem::Field(struct_ty, idx)) => {
            let sty = types.resolve(*struct_ty);
            destructure(node, &sty, types, ctx, hint)?;
            match node {
                HeapNode::Struct(_, fields) => {
                    let field_ty = types
                        .struct_info(&sty)
                        .and_then(|(_, f)| f.get(*idx).cloned())
                        .unwrap_or(Ty::Unit);
                    let child = fields
                        .get_mut(*idx)
                        .ok_or_else(|| HeapError::Error(format!("no field {idx} in {sty}")))?;
                    navigate(child, &field_ty, &proj[1..], types, ctx, hint)
                }
                HeapNode::Missing => Err(HeapError::missing(
                    "field of framed-off struct",
                    hint.clone(),
                )),
                _ => Err(HeapError::Error(format!(
                    "field projection into a non-struct node of type {node_ty}"
                ))),
            }
        }
        Some(ProjElem::Index(elem_ty, off)) => {
            let ety = types.resolve(*elem_ty);
            // Convert uninitialised nodes into empty arrays lazily.
            if matches!(node, HeapNode::Uninit) {
                *node = HeapNode::Array {
                    elem: ety.clone(),
                    segs: vec![],
                };
            }
            match node {
                HeapNode::Array { elem, segs } => {
                    if *elem != ety {
                        return Err(HeapError::Error(format!(
                            "indexing type mismatch: array of {elem}, access at {ety}"
                        )));
                    }
                    if proj.len() > 1 {
                        return Err(HeapError::Error(
                            "projections below a laid-out node are not supported".to_owned(),
                        ));
                    }
                    Ok(NodeRef::ArrayRange {
                        segs,
                        offset: off.clone(),
                        count: Expr::Int(1),
                    })
                }
                HeapNode::Missing => Err(HeapError::missing(
                    "index into framed-off memory",
                    hint.clone(),
                )),
                _ => Err(HeapError::Error(
                    "index projection into a structural node".to_owned(),
                )),
            }
        }
    }
}

/// Destructures a `Val`/`Uninit` node of struct type into a `Struct` node.
fn destructure(
    node: &mut HeapNode,
    sty: &Ty,
    types: &Types,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<()> {
    match node {
        HeapNode::Struct(..) => Ok(()),
        HeapNode::Missing => Err(HeapError::missing("struct is framed off", hint.clone())),
        HeapNode::Uninit => {
            let (tag, fields) = types
                .struct_info(sty)
                .ok_or_else(|| HeapError::Error(format!("{sty} is not a struct type")))?;
            *node = HeapNode::Struct(tag, vec![HeapNode::Uninit; fields.len()]);
            Ok(())
        }
        HeapNode::Val(v) => {
            let (tag, fields) = types
                .struct_info(sty)
                .ok_or_else(|| HeapError::Error(format!("{sty} is not a struct type")))?;
            let field_vals: Vec<Expr> = (0..fields.len()).map(|_| ctx.fresh()).collect();
            let ctor = Expr::ctor(&format!("struct::{tag}"), field_vals.clone());
            let fact = Expr::eq(v.clone(), ctor);
            ctx.assume(fact);
            *node = HeapNode::Struct(tag, field_vals.into_iter().map(HeapNode::Val).collect());
            Ok(())
        }
        HeapNode::Array { .. } => Err(HeapError::Error(
            "cannot view a laid-out node as a struct".to_owned(),
        )),
    }
}

/// Reads the value of a structural node (recursively rebuilding struct
/// values).
#[allow(clippy::only_used_in_recursion)]
fn read_node(
    node: &HeapNode,
    ty: &Ty,
    types: &Types,
    _ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<Expr> {
    match node {
        HeapNode::Val(v) => Ok(v.clone()),
        HeapNode::Uninit => Err(HeapError::Error("load of uninitialised memory".to_owned())),
        HeapNode::Missing => Err(HeapError::missing(
            "load of framed-off memory",
            hint.clone(),
        )),
        HeapNode::Struct(tag, fields) => {
            let mut vals = Vec::new();
            for f in fields {
                vals.push(read_node(f, ty, types, _ctx, hint)?);
            }
            Ok(Expr::ctor(&format!("struct::{tag}"), vals))
        }
        HeapNode::Array { .. } => Err(HeapError::Error(
            "whole-array loads are not supported".to_owned(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Laid-out segment manipulation (Fig. 2: isolate and write)
// ---------------------------------------------------------------------------

fn seg_contains(seg: &Segment, off: &Expr, count: &Expr, ctx: &PureCtx<'_>) -> bool {
    let end = simplify(&Expr::add(off.clone(), count.clone()));
    ctx.entails(&Expr::le(seg.start.clone(), off.clone()))
        && ctx.entails(&Expr::le(end, seg.end.clone()))
}

fn subrange_of(seg: &Segment, off: &Expr, count: &Expr) -> SegData {
    match &seg.data {
        SegData::Uninit => SegData::Uninit,
        SegData::Vals(vs) => {
            let lo = simplify(&Expr::sub(off.clone(), seg.start.clone()));
            let hi = simplify(&Expr::add(lo.clone(), count.clone()));
            SegData::Vals(simplify(&Expr::seq_sub(vs.clone(), lo, hi)))
        }
    }
}

/// Merges adjacent segments of the same kind (values with values, uninit with
/// uninit) so that accesses spanning what used to be two productions succeed.
fn coalesce(segs: &mut Vec<Segment>, ctx: &mut PureCtx<'_>) {
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for i in 0..segs.len() {
            for j in 0..segs.len() {
                if i == j {
                    continue;
                }
                if !ctx.must_equal(&segs[i].end, &segs[j].start) {
                    continue;
                }
                let merged = match (&segs[i].data, &segs[j].data) {
                    (SegData::Uninit, SegData::Uninit) => Some(SegData::Uninit),
                    (SegData::Vals(a), SegData::Vals(b)) => Some(SegData::Vals(simplify(
                        &Expr::seq_concat(a.clone(), b.clone()),
                    ))),
                    _ => None,
                };
                if let Some(data) = merged {
                    let start = segs[i].start.clone();
                    let end = segs[j].end.clone();
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    segs.remove(hi);
                    segs.remove(lo);
                    segs.push(Segment { start, end, data });
                    changed = true;
                    break 'outer;
                }
            }
        }
    }
}

/// Splits the containing segment into (before, middle, after) around
/// `[off, off+count)` and returns the index where the middle part was.
fn isolate(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<usize> {
    let end = simplify(&Expr::add(off.clone(), count.clone()));
    if segs.iter().all(|s| !seg_contains(s, off, count, ctx)) {
        coalesce(segs, ctx);
    }
    let idx = segs
        .iter()
        .position(|s| seg_contains(s, off, count, ctx))
        .ok_or_else(|| HeapError::missing("no segment covers the accessed range", hint.clone()))?;
    let seg = segs.remove(idx);
    let mut insert_at = idx;
    // Part before the accessed range.
    if !ctx.must_equal(&seg.start, off) {
        segs.insert(
            insert_at,
            Segment {
                start: seg.start.clone(),
                end: off.clone(),
                data: subrange_of(
                    &seg,
                    &seg.start,
                    &simplify(&Expr::sub(off.clone(), seg.start.clone())),
                ),
            },
        );
        insert_at += 1;
    }
    // The accessed range itself.
    segs.insert(
        insert_at,
        Segment {
            start: off.clone(),
            end: end.clone(),
            data: subrange_of(&seg, off, count),
        },
    );
    // Part after the accessed range.
    if !ctx.must_equal(&seg.end, &end) {
        segs.insert(
            insert_at + 1,
            Segment {
                start: end.clone(),
                end: seg.end.clone(),
                data: subrange_of(
                    &seg,
                    &end,
                    &simplify(&Expr::sub(seg.end.clone(), end.clone())),
                ),
            },
        );
    }
    Ok(insert_at)
}

fn read_range(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<Expr> {
    let idx = isolate(segs, off, count, ctx, hint)?;
    match &segs[idx].data {
        SegData::Vals(vs) => Ok(vs.clone()),
        SegData::Uninit => Err(HeapError::Error(
            "load of uninitialised array memory".to_owned(),
        )),
    }
}

fn write_range(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    data: SegData,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<()> {
    let idx = isolate(segs, off, count, ctx, hint)?;
    segs[idx].data = data;
    Ok(())
}

fn take_range(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<Expr> {
    if ctx.entails(&Expr::le(count.clone(), Expr::Int(0))) {
        return Ok(Expr::empty_seq());
    }
    let idx = isolate(segs, off, count, ctx, hint)?;
    match segs[idx].data.clone() {
        SegData::Vals(vs) => {
            segs.remove(idx);
            Ok(vs)
        }
        SegData::Uninit => Err(HeapError::Error(
            "consuming values from uninitialised memory".to_owned(),
        )),
    }
}

fn take_uninit_range(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    ctx: &mut PureCtx<'_>,
    hint: &Expr,
) -> HeapResult<()> {
    if ctx.entails(&Expr::le(count.clone(), Expr::Int(0))) {
        return Ok(());
    }
    let idx = isolate(segs, off, count, ctx, hint)?;
    match segs[idx].data {
        SegData::Uninit => {
            segs.remove(idx);
            Ok(())
        }
        SegData::Vals(_) => Err(HeapError::Error(
            "expected uninitialised memory but found values".to_owned(),
        )),
    }
}

fn give_range(
    segs: &mut Vec<Segment>,
    off: &Expr,
    count: &Expr,
    data: SegData,
    ctx: &mut PureCtx<'_>,
) -> HeapResult<()> {
    let end = simplify(&Expr::add(off.clone(), count.clone()));
    // Producing a region that definitely overlaps an existing one is
    // inconsistent (separation); otherwise record disjointness facts.
    for seg in segs.iter() {
        let disjoint = Expr::or(
            Expr::le(end.clone(), seg.start.clone()),
            Expr::le(seg.end.clone(), off.clone()),
        );
        if !ctx.assume(disjoint) {
            return Err(HeapError::Vanish);
        }
    }
    // Empty ranges carry no resource.
    if ctx.entails(&Expr::le(end.clone(), off.clone())) {
        return Ok(());
    }
    segs.push(Segment {
        start: off.clone(),
        end,
        data,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRegistry;
    use gillian_engine::with_pure_ctx;
    use gillian_solver::Solver;
    use rust_ir::{AdtDef, LayoutOracle, Program};

    fn setup() -> (Types, Solver) {
        let mut p = Program::new("t");
        p.add_adt(AdtDef::strukt(
            "Pair",
            &[],
            vec![("a", Ty::usize()), ("b", Ty::usize())],
        ));
        (TypeRegistry::new(p, LayoutOracle::default()), Solver::new())
    }

    #[test]
    fn alloc_store_load_round_trip() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let pair_ty = Ty::adt("Pair", vec![]);
        let addr = heap.alloc(pair_ty.clone());
        with_pure_ctx(&solver, |ctx| {
            let pair_id = types.intern(&pair_ty);
            let field0 = addr.clone().with_field(pair_id, 0);
            heap.store(&field0, &Ty::usize(), Expr::Int(7), &types, ctx)
                .unwrap();
            let v = heap.load(&field0, &Ty::usize(), &types, ctx).unwrap();
            assert_eq!(v, Expr::Int(7));
        });
    }

    #[test]
    fn load_uninitialised_field_is_an_error() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let pair_ty = Ty::adt("Pair", vec![]);
        let addr = heap.alloc(pair_ty.clone());
        with_pure_ctx(&solver, |ctx| {
            let pair_id = types.intern(&pair_ty);
            let field1 = addr.clone().with_field(pair_id, 1);
            match heap.load(&field1, &Ty::usize(), &types, ctx) {
                Err(HeapError::Error(_)) => {}
                other => panic!("expected error, got {other:?}"),
            }
        });
    }

    #[test]
    fn symbolic_struct_value_destructures_on_field_access() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let pair_ty = Ty::adt("Pair", vec![]);
        let addr = heap.alloc(pair_ty.clone());
        with_pure_ctx(&solver, |ctx| {
            let v = ctx.fresh();
            heap.store(&addr, &pair_ty, v.clone(), &types, ctx).unwrap();
            let pair_id = types.intern(&pair_ty);
            let field0 = addr.clone().with_field(pair_id, 0);
            let f0 = heap.load(&field0, &Ty::usize(), &types, ctx).unwrap();
            assert!(matches!(f0, Expr::Var(_)));
            // Destructuring recorded the equality v == struct::Pair(f0, f1).
            assert!(ctx.ctx.path().iter().any(|f| matches!(
                f.as_ref(),
                Expr::BinOp(gillian_solver::BinOp::Eq, a, _) if a.as_ref() == &v
            ) || matches!(
                f.as_ref(),
                Expr::BinOp(gillian_solver::BinOp::Eq, _, b) if b.as_ref() == &v
            )));
        });
    }

    #[test]
    fn take_then_load_reports_missing() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let addr = heap.alloc(Ty::usize());
        with_pure_ctx(&solver, |ctx| {
            heap.store(&addr, &Ty::usize(), Expr::Int(3), &types, ctx)
                .unwrap();
            let v = heap.take(&addr, &Ty::usize(), &types, ctx).unwrap();
            assert_eq!(v, Expr::Int(3));
            match heap.load(&addr, &Ty::usize(), &types, ctx) {
                Err(HeapError::Missing { .. }) => {}
                other => panic!("expected missing, got {other:?}"),
            }
        });
    }

    #[test]
    fn laid_out_isolate_and_write_figure_2() {
        // A laid-out node [0, n) with values [0, k) and uninit [k, n):
        // writing one value at offset k extends the value region.
        let (types, solver) = setup();
        let mut heap = Heap::new();
        with_pure_ctx(&solver, |ctx| {
            let n = ctx.fresh();
            let k = ctx.fresh();
            let vs = ctx.fresh();
            assert!(ctx.assume(Expr::le(Expr::Int(0), k.clone())));
            assert!(ctx.assume(Expr::lt(k.clone(), n.clone())));
            assert!(ctx.assume(Expr::eq(Expr::seq_len(vs.clone()), k.clone())));
            let elem = Ty::usize();
            let addr = heap.alloc_array(elem.clone(), n);
            let elem_id = types.intern(&elem);
            // Fill [0, k) with values.
            heap.take_uninit_slice(&addr, &elem, &k, &types, ctx)
                .unwrap();
            heap.give_slice(&addr, &elem, &k, vs, &types, ctx).unwrap();
            // Write a single element at offset k.
            let at_k = addr.clone().with_index(elem_id, k);
            heap.store(&at_k, &elem, Expr::Int(99), &types, ctx)
                .unwrap();
            let back = heap.load(&at_k, &elem, &types, ctx).unwrap();
            assert_eq!(back, Expr::Int(99));
        });
    }

    #[test]
    fn free_whole_object() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let addr = heap.alloc(Ty::usize());
        with_pure_ctx(&solver, |ctx| {
            heap.store(&addr, &Ty::usize(), Expr::Int(1), &types, ctx)
                .unwrap();
        });
        heap.free(&addr, addr.to_expr()).unwrap();
        assert!(heap.is_empty());
        assert!(heap.free(&addr, addr.to_expr()).is_err());
    }

    #[test]
    fn resolve_ptr_through_path_equality() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let addr = heap.alloc(Ty::usize());
        with_pure_ctx(&solver, |ctx| {
            let p = ctx.fresh();
            assert!(ctx.assume(Expr::eq(p.clone(), addr.to_expr())));
            let resolved = heap.resolve_ptr(&p, ctx, &types).unwrap();
            assert_eq!(resolved, addr);
        });
    }

    #[test]
    fn resolve_ptr_or_bind_allocates_abstract_location() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        with_pure_ctx(&solver, |ctx| {
            let p = ctx.fresh();
            let (addr, facts) = heap.resolve_ptr_or_bind(&p, ctx, &types);
            assert!(addr.proj.is_empty());
            assert_eq!(facts.len(), 1);
        });
    }

    #[test]
    fn retype_array_only_when_uninit() {
        let (types, solver) = setup();
        let mut heap = Heap::new();
        let bytes = Expr::Int(32);
        let addr = heap.alloc_array(Ty::u8(), bytes);
        heap.retype_array(&addr, Ty::usize(), Expr::Int(4), addr.to_expr())
            .unwrap();
        with_pure_ctx(&solver, |ctx| {
            let id = types.intern(&Ty::usize());
            let at0 = addr.clone().with_index(id, Expr::Int(0));
            heap.store(&at0, &Ty::usize(), Expr::Int(5), &types, ctx)
                .unwrap();
        });
        assert!(heap
            .retype_array(&addr, Ty::u8(), Expr::Int(32), addr.to_expr())
            .is_err());
    }
}
