#include "core/atomic_query_part.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/hash.h"
#include "common/string_util.h"

namespace erq {

RelationSet::RelationSet(std::vector<std::string> names) {
  names_.reserve(names.size());
  for (std::string& n : names) names_.push_back(ToLower(n));
  std::sort(names_.begin(), names_.end());
  names_.erase(std::unique(names_.begin(), names_.end()), names_.end());
}

bool RelationSet::Contains(const std::string& name) const {
  return std::binary_search(names_.begin(), names_.end(), ToLower(name));
}

bool RelationSet::IsSubsetOf(const RelationSet& other) const {
  return std::includes(other.names_.begin(), other.names_.end(),
                       names_.begin(), names_.end());
}

std::string RelationSet::Key() const { return Join(names_, ","); }

size_t RelationSet::Hash() const {
  size_t seed = names_.size();
  for (const std::string& n : names_) HashCombine(&seed, n);
  return seed;
}

std::string RelationSet::ToString() const {
  return StrCat({"{", Key(), "}"});
}

namespace {

/// Splits a canonical occurrence name into (base, present) — "a#2" -> "a".
std::string BaseOf(const std::string& occurrence) {
  size_t hash_pos = occurrence.find('#');
  return hash_pos == std::string::npos ? occurrence
                                       : occurrence.substr(0, hash_pos);
}

/// Enumerates injective assignments of this part's occurrences to the
/// query part's occurrences of the same base, invoking `fn(mapping)` for
/// each; stops early when fn returns true. Bounded to keep the check
/// cheap (occurrence counts are tiny in practice).
bool ForEachOccurrenceMapping(
    const RelationSet& stored, const RelationSet& query,
    const std::function<
        bool(const std::unordered_map<std::string, std::string>&)>& fn) {
  // Group query occurrences by base.
  std::unordered_map<std::string, std::vector<std::string>> query_by_base;
  for (const std::string& name : query.names()) {
    query_by_base[BaseOf(name)].push_back(name);
  }
  // Per stored occurrence, its candidate query occurrences.
  std::vector<std::pair<std::string, const std::vector<std::string>*>> slots;
  size_t combinations = 1;
  for (const std::string& name : stored.names()) {
    auto it = query_by_base.find(BaseOf(name));
    if (it == query_by_base.end()) return false;  // base not in query
    slots.emplace_back(name, &it->second);
    combinations *= it->second.size();
    if (combinations > 64) return false;  // bounded search; sound to give up
  }
  // Depth-first enumeration with injectivity per base.
  std::unordered_map<std::string, std::string> mapping;
  std::vector<const std::string*> used;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == slots.size()) return fn(mapping);
    for (const std::string& candidate : *slots[i].second) {
      bool taken = false;
      for (const std::string* u : used) {
        if (*u == candidate) {
          taken = true;
          break;
        }
      }
      if (taken) continue;
      mapping[slots[i].first] = candidate;
      used.push_back(&candidate);
      if (rec(i + 1)) return true;
      used.pop_back();
      mapping.erase(slots[i].first);
    }
    return false;
  };
  return rec(0);
}

}  // namespace

bool AtomicQueryPart::Covers(const AtomicQueryPart& other) const {
  if (relations_.IsSubsetOf(other.relations_)) {
    if (condition_.Covers(other.condition_)) return true;
  }
  // Occurrence remapping only helps when the query repeats a base table.
  bool query_has_repeats = false;
  for (const std::string& name : other.relations_.names()) {
    if (name.find('#') != std::string::npos) {
      query_has_repeats = true;
      break;
    }
  }
  if (!query_has_repeats) return false;
  return ForEachOccurrenceMapping(
      relations_, other.relations_,
      [&](const std::unordered_map<std::string, std::string>& mapping) {
        // Identity mappings were already covered by the literal check.
        bool identity = true;
        for (const auto& [from, to] : mapping) {
          if (from != to) {
            identity = false;
            break;
          }
        }
        if (identity) return false;
        return condition_.RenameRelations(mapping).Covers(other.condition_);
      });
}

size_t AtomicQueryPart::Hash() const {
  size_t seed = relations_.Hash();
  HashCombine(&seed, condition_.Hash());
  return seed;
}

std::string AtomicQueryPart::ToString() const {
  return relations_.ToString() + " | " + condition_.ToString();
}

}  // namespace erq
