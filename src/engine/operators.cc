#include "engine/operators.h"

#include <algorithm>
#include <unordered_map>

namespace dynview {

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  for (const Column& c : b.columns()) cols.push_back(c);
  return Schema(std::move(cols));
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool AnyNull(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[static_cast<size_t>(k)].is_null()) return true;
  }
  return false;
}

Row KeyOf(const Row& row, const std::vector<int>& keys) {
  Row key;
  key.reserve(keys.size());
  for (int k : keys) key.push_back(row[static_cast<size_t>(k)]);
  return key;
}

Status CheckKeys(const Table& t, const std::vector<int>& keys,
                 const char* side) {
  for (int k : keys) {
    if (k < 0 || static_cast<size_t>(k) >= t.schema().num_columns()) {
      return Status::InvalidArgument(std::string("join key out of range on ") +
                                     side);
    }
  }
  return Status::OK();
}

/// Evaluates the key expressions of `keys` over `row`; a NULL component
/// marks the row as unjoinable (NULL keys never match, per SQL).
Result<Row> EvalKey(const std::vector<PreparedValue>& keys, const Row& row,
                    bool* null_key) {
  Row key;
  key.reserve(keys.size());
  *null_key = false;
  for (const PreparedValue& k : keys) {
    DV_ASSIGN_OR_RETURN(Value v, k.Eval(row));
    if (v.is_null()) *null_key = true;
    key.push_back(std::move(v));
  }
  return key;
}

/// The hash join behind HashJoin and JoinOnExprs. `lkey(row, &null_key)` /
/// `rkey(...)` compute a row's key as a Result<Row> and flag a NULL
/// component (NULL keys never match, per SQL). Builds on `right`, probes
/// with `left`; output columns are left's followed by right's, in probe
/// order. Above the morsel threshold the build side is hash-partitioned
/// across shards and the probe side runs in morsels; per-morsel outputs
/// merge in morsel order, so the result is identical to the serial join.
template <typename LeftKey, typename RightKey>
Result<Table> JoinOnKeys(const Table& left, const Table& right,
                         const LeftKey& lkey, const RightKey& rkey,
                         const ExecContext& ctx) {
  Table out(ConcatSchemas(left.schema(), right.schema()));

  using Index =
      std::unordered_map<Row, std::vector<size_t>, RowGroupHash, RowGroupEq>;
  const bool parallel = ctx.ShouldParallelize(left.num_rows()) ||
                        ctx.ShouldParallelize(right.num_rows());
  const size_t out_width = out.schema().num_columns();

  if (!parallel) {
    Index index;
    index.reserve(right.num_rows());
    for (size_t i = 0; i < right.num_rows(); ++i) {
      bool null_key = false;
      DV_ASSIGN_OR_RETURN(Row key, rkey(right.row(i), &null_key));
      if (!null_key) index[std::move(key)].push_back(i);
    }
    size_t since_check = 0;
    for (const Row& lrow : left.rows()) {
      if (ctx.guard != nullptr && (since_check++ & 1023) == 0) {
        DV_RETURN_IF_ERROR(ctx.CheckGuard());
      }
      bool null_key = false;
      DV_ASSIGN_OR_RETURN(Row key, lkey(lrow, &null_key));
      if (null_key) continue;
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (size_t ri : it->second) {
        out.AppendRowUnchecked(ConcatRows(lrow, right.row(ri)));
      }
    }
    DV_RETURN_IF_ERROR(ctx.ChargeRows(out.num_rows(), out_width));
    return out;
  }

  // Partitioned build. Phase 1 (morsel-parallel): evaluate every build key.
  // Phase 2 (shard-parallel): each shard inserts the keys hashing into it,
  // so every shard map has exactly one writer.
  RowGroupHash hasher;
  const size_t num_shards = ctx.pool->num_workers() + 1;
  const size_t build_rows = right.num_rows();
  std::vector<Row> build_keys(build_rows);
  std::vector<size_t> build_hash(build_rows);
  std::vector<char> build_skip(build_rows, 0);
  {
    const size_t m = ctx.MorselSize(build_rows);
    const size_t n = build_rows == 0 ? 0 : (build_rows + m - 1) / m;
    std::vector<Status> errors(n, Status::OK());
    ctx.pool->ParallelFor(
        n,
        [&](size_t p) {
          for (size_t i = p * m, end = std::min(build_rows, (p + 1) * m);
               i < end; ++i) {
            bool null_key = false;
            Result<Row> key = rkey(right.row(i), &null_key);
            if (!key.ok()) {
              errors[p] = key.status();
              return;
            }
            if (null_key) {
              build_skip[i] = 1;
              continue;
            }
            build_keys[i] = std::move(key).value();
            build_hash[i] = hasher(build_keys[i]);
          }
        },
        ctx.CancelFlag());
    DV_RETURN_IF_ERROR(ctx.CheckGuard());
    for (const Status& s : errors) DV_RETURN_IF_ERROR(s);
  }
  std::vector<Index> shards(num_shards);
  // Skipped shard inserts are safe: a skip implies a tripped guard, and the
  // probe morsels below re-check the guard before any merge.
  ctx.pool->ParallelFor(
      num_shards,
      [&](size_t s) {
        Index& shard = shards[s];
        for (size_t i = 0; i < build_rows; ++i) {
          if (!build_skip[i] && build_hash[i] % num_shards == s) {
            shard[std::move(build_keys[i])].push_back(i);
          }
        }
      },
      ctx.CancelFlag());

  // Morsel probe, merged in morsel order.
  const size_t probe_rows = left.num_rows();
  const size_t m = ctx.MorselSize(probe_rows);
  const size_t n = probe_rows == 0 ? 0 : (probe_rows + m - 1) / m;
  std::vector<Table> parts(n);
  std::vector<Status> errors(n, Status::OK());
  ctx.pool->ParallelFor(
      n,
      [&](size_t p) {
        Table part(out.schema());
        errors[p] = ctx.CheckGuard();
        if (errors[p].ok()) {
          for (size_t i = p * m, end = std::min(probe_rows, (p + 1) * m);
               i < end; ++i) {
            const Row& lrow = left.row(i);
            bool null_key = false;
            Result<Row> key = lkey(lrow, &null_key);
            if (!key.ok()) {
              errors[p] = key.status();
              break;
            }
            if (null_key) continue;
            const Index& shard = shards[hasher(key.value()) % num_shards];
            auto it = shard.find(key.value());
            if (it == shard.end()) continue;
            for (size_t ri : it->second) {
              part.AppendRowUnchecked(ConcatRows(lrow, right.row(ri)));
            }
          }
          if (errors[p].ok()) {
            errors[p] = ctx.ChargeRows(part.num_rows(), out_width);
          }
        }
        parts[p] = std::move(part);
      },
      ctx.CancelFlag());
  DV_RETURN_IF_ERROR(ctx.CheckGuard());
  for (size_t p = 0; p < n; ++p) {
    DV_RETURN_IF_ERROR(errors[p]);
    DV_RETURN_IF_ERROR(out.AppendTable(std::move(parts[p])));
  }
  return out;
}

}  // namespace

size_t ExecContext::MorselSize(size_t rows) const {
  size_t threads = pool == nullptr ? 1 : pool->num_workers() + 1;
  size_t per_thread = (rows + threads * 4 - 1) / (threads * 4);
  return std::max(morsel_rows, per_thread);
}

Status FilterEmit(
    const Table& in,
    const std::vector<std::shared_ptr<const CompiledExpr>>& preds,
    const ExecContext& ctx,
    const std::function<Status(size_t morsel, const Row& row)>& emit) {
  const size_t rows = in.num_rows();
  const size_t width = in.schema().num_columns();
  ScopedSpan span(ctx.trace, "op.filter", std::to_string(rows) + " rows");
  // Scanned rows counted pre-split: the total is independent of how (or
  // whether) the input is morselized — a stable cross-thread-count oracle.
  ctx.Count(counters::kRowsScanned, rows);
  struct Outcome {
    Status filter_error;  // A filter error, guard trip or budget charge.
    Status emit_error;
  };
  auto run = [&](size_t morsel, size_t begin, size_t end, Outcome* o) {
    size_t kept = 0;
    for (size_t i = begin; i < end; ++i) {
      if (ctx.guard != nullptr && ((i - begin) & 1023) == 0) {
        o->filter_error = ctx.CheckGuard();
        if (!o->filter_error.ok()) return;
      }
      const Row& r = in.row(i);
      bool keep = true;
      for (const auto& p : preds) {
        Result<TriBool> t = p->EvalPredicate(r);
        if (!t.ok()) {
          o->filter_error = t.status();
          return;
        }
        if (t.value() != TriBool::kTrue) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      ++kept;
      if (o->emit_error.ok()) o->emit_error = emit(morsel, r);
    }
    o->filter_error = ctx.ChargeRows(kept, width);
  };
  const size_t n = ctx.NumMorsels(rows);
  ctx.Count(counters::kMorselsExecuted, n);
  std::vector<Outcome> outcomes(n);
  if (!ctx.ShouldParallelize(rows)) {
    run(0, 0, rows, &outcomes[0]);
  } else {
    const size_t m = ctx.MorselSize(rows);
    ctx.pool->ParallelFor(
        n,
        [&](size_t i) {
          run(i, i * m, std::min(rows, (i + 1) * m), &outcomes[i]);
        },
        ctx.CancelFlag());
    // A tripped guard wins: skipped morsels never ran.
    DV_RETURN_IF_ERROR(ctx.CheckGuard());
  }
  // The lowest erroring row's filter error, else its emit error: what a
  // serial filter followed by a serial emit would report.
  for (const Outcome& o : outcomes) DV_RETURN_IF_ERROR(o.filter_error);
  for (const Outcome& o : outcomes) DV_RETURN_IF_ERROR(o.emit_error);
  return Status::OK();
}

std::shared_ptr<const CompiledExpr> PrepareProgram(
    const Expr& e, const ColumnBindings& bindings, bool as_predicate,
    const ExecContext& ctx, int agg_base) {
  if (ctx.programs == nullptr) {
    return CompiledExpr::Compile(e, bindings, as_predicate, agg_base);
  }
  return ctx.programs->GetOrCompile(e, bindings, as_predicate, ctx.metrics,
                                    agg_base);
}

PreparedValue PrepareValue(const Expr& e, const ColumnBindings& bindings,
                           const ExecContext& ctx) {
  PreparedValue v;
  if (e.kind == ExprKind::kLiteral && e.param_index < 0) {
    v.constant = e.literal;
  } else {
    v.program = PrepareProgram(e, bindings, /*as_predicate=*/false, ctx);
  }
  return v;
}

Result<Table> FilterTable(const Table& in, const ColumnBindings& bindings,
                          const std::vector<const Expr*>& conjuncts,
                          const ExecContext& ctx) {
  // Programs compiled once per operator, shared by every morsel worker.
  std::vector<std::shared_ptr<const CompiledExpr>> preds;
  preds.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    preds.push_back(PrepareProgram(*c, bindings, /*as_predicate=*/true, ctx));
  }
  return FilterTable(in, preds, ctx);
}

Result<Table> FilterTable(
    const Table& in,
    const std::vector<std::shared_ptr<const CompiledExpr>>& preds,
    const ExecContext& ctx) {
  std::vector<Table> parts(ctx.NumMorsels(in.num_rows()), Table(in.schema()));
  DV_RETURN_IF_ERROR(
      FilterEmit(in, preds, ctx, [&](size_t morsel, const Row& r) {
        parts[morsel].AppendRowUnchecked(r);
        return Status::OK();
      }));
  Table out = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    DV_RETURN_IF_ERROR(out.AppendTable(std::move(parts[i])));
  }
  return out;
}

Result<Table> JoinOnExprs(const Table& left, const ColumnBindings& lb,
                          const Table& right, const ColumnBindings& rb,
                          const std::vector<const Expr*>& lkeys,
                          const std::vector<const Expr*>& rkeys,
                          const ExecContext& ctx) {
  // Key programs compiled once per join, shared by every build/probe worker.
  std::vector<PreparedValue> lk, rk;
  for (const Expr* e : lkeys) lk.push_back(PrepareValue(*e, lb, ctx));
  for (const Expr* e : rkeys) rk.push_back(PrepareValue(*e, rb, ctx));
  return JoinOnExprs(left, right, lk, rk, ctx);
}

Result<Table> JoinOnExprs(const Table& left, const Table& right,
                          const std::vector<PreparedValue>& lk,
                          const std::vector<PreparedValue>& rk,
                          const ExecContext& ctx) {
  return JoinOnKeys(
      left, right,
      [&](const Row& r, bool* null_key) { return EvalKey(lk, r, null_key); },
      [&](const Row& r, bool* null_key) { return EvalKey(rk, r, null_key); },
      ctx);
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys,
                       const ExecContext& ctx) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("mismatched join key arity");
  }
  DV_RETURN_IF_ERROR(CheckKeys(left, left_keys, "left"));
  DV_RETURN_IF_ERROR(CheckKeys(right, right_keys, "right"));
  ScopedSpan span(ctx.trace, "op.hash_join",
                  std::to_string(left.num_rows()) + "x" +
                      std::to_string(right.num_rows()));
  ctx.Count(counters::kRowsScanned, left.num_rows() + right.num_rows());
  auto key_of = [](const std::vector<int>& keys) {
    return [&keys](const Row& r, bool* null_key) -> Result<Row> {
      *null_key = AnyNull(r, keys);
      return KeyOf(r, keys);
    };
  };
  DV_ASSIGN_OR_RETURN(
      Table out, JoinOnKeys(left, right, key_of(left_keys),
                            key_of(right_keys), ctx));
  // Joined rows counted on the driving thread: the total equals the serial
  // join's output size regardless of the morsel split.
  ctx.Count(counters::kRowsJoined, out.num_rows());
  return out;
}

Result<Table> CrossProduct(const Table& left, const Table& right,
                           const ExecContext& ctx) {
  ScopedSpan span(ctx.trace, "op.cross_product",
                  std::to_string(left.num_rows()) + "x" +
                      std::to_string(right.num_rows()));
  ctx.Count(counters::kRowsScanned, left.num_rows() + right.num_rows());
  Table out(ConcatSchemas(left.schema(), right.schema()));
  const size_t width = out.schema().num_columns();
  if (ctx.guard == nullptr) {
    out.Reserve(left.num_rows() * right.num_rows());
  } else {
    // Guarded: no speculative quadratic Reserve — the budget may trip long
    // before left×right rows exist, and exponential growth costs O(n).
    DV_RETURN_IF_ERROR(ctx.CheckGuard());
  }
  size_t since_check = 0;
  for (const Row& l : left.rows()) {
    if (ctx.guard != nullptr) {
      // Charge a full stripe per left row: the product trips its budget
      // while still small instead of after materializing.
      DV_RETURN_IF_ERROR(ctx.ChargeRows(right.num_rows(), width));
      if ((since_check++ & 63) == 0) DV_RETURN_IF_ERROR(ctx.CheckGuard());
    }
    for (const Row& r : right.rows()) {
      out.AppendRowUnchecked(ConcatRows(l, r));
    }
  }
  ctx.Count(counters::kRowsJoined, out.num_rows());
  return out;
}

Result<Table> FullOuterJoin(const Table& left, const Table& right,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("mismatched join key arity");
  }
  DV_RETURN_IF_ERROR(CheckKeys(left, left_keys, "left"));
  DV_RETURN_IF_ERROR(CheckKeys(right, right_keys, "right"));
  Table out(ConcatSchemas(left.schema(), right.schema()));
  // Every left row emits at least one output row and unmatched right rows
  // emit one each, so left+right is a tight lower bound on the output size.
  out.Reserve(left.num_rows() + right.num_rows());
  std::unordered_map<Row, std::vector<size_t>, RowGroupHash, RowGroupEq> index;
  index.reserve(right.num_rows());
  for (size_t i = 0; i < right.num_rows(); ++i) {
    if (AnyNull(right.row(i), right_keys)) continue;
    index[KeyOf(right.row(i), right_keys)].push_back(i);
  }
  std::vector<bool> right_matched(right.num_rows(), false);
  Row null_right(right.schema().num_columns(), Value::Null());
  Row null_left(left.schema().num_columns(), Value::Null());
  for (const Row& lrow : left.rows()) {
    bool matched = false;
    if (!AnyNull(lrow, left_keys)) {
      auto it = index.find(KeyOf(lrow, left_keys));
      if (it != index.end()) {
        matched = true;
        for (size_t ri : it->second) {
          right_matched[ri] = true;
          out.AppendRowUnchecked(ConcatRows(lrow, right.row(ri)));
        }
      }
    }
    if (!matched) out.AppendRowUnchecked(ConcatRows(lrow, null_right));
  }
  for (size_t i = 0; i < right.num_rows(); ++i) {
    if (!right_matched[i]) {
      out.AppendRowUnchecked(ConcatRows(null_left, right.row(i)));
    }
  }
  return out;
}

Result<Table> UnionAll(const Table& a, const Table& b) {
  if (a.schema().num_columns() != b.schema().num_columns()) {
    return Status::InvalidArgument("UNION arity mismatch: " +
                                   std::to_string(a.schema().num_columns()) +
                                   " vs " +
                                   std::to_string(b.schema().num_columns()));
  }
  Table out(a.schema());
  out.Reserve(a.num_rows() + b.num_rows());
  for (const Row& r : a.rows()) out.AppendRowUnchecked(r);
  for (const Row& r : b.rows()) out.AppendRowUnchecked(r);
  return out;
}

Result<Table> ProjectColumns(const Table& t, const std::vector<int>& cols,
                             const std::vector<std::string>& names) {
  if (cols.size() != names.size()) {
    return Status::InvalidArgument("projection arity mismatch");
  }
  std::vector<Column> out_cols;
  out_cols.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] < 0 || static_cast<size_t>(cols[i]) >= t.schema().num_columns()) {
      return Status::InvalidArgument("projection index out of range");
    }
    out_cols.emplace_back(names[i], t.schema().column(cols[i]).type);
  }
  Table out(Schema(std::move(out_cols)));
  out.Reserve(t.num_rows());
  for (const Row& r : t.rows()) {
    Row nr;
    nr.reserve(cols.size());
    for (int c : cols) nr.push_back(r[static_cast<size_t>(c)]);
    out.AppendRowUnchecked(std::move(nr));
  }
  return out;
}

}  // namespace dynview
