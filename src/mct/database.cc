#include "mct/database.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "common/strings.h"

namespace mct {

MctDatabase::MctDatabase() : MctDatabase(StorageEnv::CreateInMemory()) {}

MctDatabase::MctDatabase(std::unique_ptr<StorageEnv> env)
    : env_(std::move(env)),
      store_(env_.get()),
      tag_index_(std::make_shared<BPlusTree>(env_->pool())),
      content_index_(std::make_shared<BPlusTree>(env_->pool())),
      attr_index_(std::make_shared<BPlusTree>(env_->pool())),
      tag_image_(std::make_shared<IndexImage>()),
      content_image_(std::make_shared<IndexImage>()),
      attr_image_(std::make_shared<IndexImage>()) {
  auto doc = store_.CreateNode(xml::NodeKind::kDocument, "#document");
  assert(doc.ok());
  document_ = *doc;
}

MctDatabase::MctDatabase(const MctDatabase& o, bool write_through)
    : env_(o.env_),
      store_(o.store_, write_through),
      colors_(o.colors_),
      document_(o.document_),
      tag_index_(o.tag_index_),
      content_index_(o.content_index_),
      attr_index_(o.attr_index_),
      tag_image_(o.tag_image_),
      content_image_(o.content_image_),
      attr_image_(o.attr_image_),
      write_through_(write_through) {
  trees_.reserve(o.trees_.size());
  for (const auto& t : o.trees_) {
    trees_.push_back(std::make_unique<ColoredTree>(*t, write_through));
  }
}

std::unique_ptr<MctDatabase> MctDatabase::CowClone(bool write_through) const {
  return std::unique_ptr<MctDatabase>(new MctDatabase(*this, write_through));
}

MctDatabase::~MctDatabase() = default;

uint32_t MctDatabase::HashValue(std::string_view s) {
  // FNV-1a, folded to 32 bits.
  uint32_t h = 2166136261u;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

Counter* ImageCopiedEntries() {
  static Counter* c =
      MetricsRegistry::Global().counter("mct.index.image_copied_entries");
  return c;
}

// The posting list in `slot`, privately owned: copied once when another
// version shares it (with room for one more posting).
std::vector<NodeId>& OwnList(std::shared_ptr<std::vector<NodeId>>* slot) {
  if (slot->use_count() > 1) {
    const std::vector<NodeId>& shared = **slot;
    ImageCopiedEntries()->Inc(shared.size());
    auto copy = std::make_shared<std::vector<NodeId>>();
    copy->reserve(shared.size() + 1);
    copy->assign(shared.begin(), shared.end());
    *slot = std::move(copy);
  }
  return **slot;
}

}  // namespace

MctDatabase::Shard& MctDatabase::OwnShard(std::shared_ptr<IndexImage>* image,
                                          uint64_t key) {
  if (image->use_count() > 1) {
    *image = std::make_shared<IndexImage>(**image);
  }
  std::shared_ptr<Shard>& shard = (**image)[ShardOf(key)];
  if (shard == nullptr) {
    shard = std::make_shared<Shard>();
  } else if (shard.use_count() > 1) {
    ImageCopiedEntries()->Inc(shard->size());
    shard = std::make_shared<Shard>(*shard);
  }
  return *shard;
}

void MctDatabase::ImageInsert(std::shared_ptr<IndexImage>* image,
                              uint64_t key, NodeId n) {
  PostingList& slot = OwnShard(image, key)[key];
  if (slot == nullptr) {
    slot = std::make_shared<std::vector<NodeId>>(1, n);
    return;
  }
  std::vector<NodeId>& list = OwnList(&slot);
  // Node ids rise while a document loads, so appends dominate.
  if (list.back() < n) {
    list.push_back(n);
    return;
  }
  auto it = std::lower_bound(list.begin(), list.end(), n);
  if (*it != n) list.insert(it, n);
}

void MctDatabase::ImageErase(std::shared_ptr<IndexImage>* image, uint64_t key,
                             NodeId n) {
  const std::vector<NodeId>* found = ImageFind(**image, key);
  if (found == nullptr ||
      !std::binary_search(found->begin(), found->end(), n)) {
    return;
  }
  Shard& shard = OwnShard(image, key);
  auto f = shard.find(key);
  if (f->second->size() == 1) {
    shard.erase(f);
    return;
  }
  std::vector<NodeId>& list = OwnList(&f->second);
  list.erase(std::lower_bound(list.begin(), list.end(), n));
}

const std::vector<NodeId>* MctDatabase::ImageFind(const IndexImage& image,
                                                  uint64_t key) {
  const Shard* shard = image[ShardOf(key)].get();
  if (shard == nullptr) return nullptr;
  auto it = shard->find(key);
  return it == shard->end() ? nullptr : it->second.get();
}

Result<ColorId> MctDatabase::RegisterColor(std::string_view name) {
  ColorId existing = colors_.Lookup(name);
  if (existing != kInvalidColorId) return existing;
  MCT_ASSIGN_OR_RETURN(ColorId id, colors_.Register(name));
  assert(id == trees_.size());
  trees_.push_back(std::make_unique<ColoredTree>(id, env_.get()));
  MCT_RETURN_IF_ERROR(trees_[id]->SetRoot(document_));
  store_.AddColor(document_, id);
  return id;
}

Result<NodeId> MctDatabase::CreateElement(ColorId color, NodeId parent,
                                          std::string_view tag) {
  MCT_ASSIGN_OR_RETURN(NodeId node,
                       store_.CreateNode(xml::NodeKind::kElement, tag));
  MCT_RETURN_IF_ERROR(AddNodeColor(node, color, parent));
  return node;
}

Result<NodeId> MctDatabase::CreateFreeElement(std::string_view tag) {
  return store_.CreateNode(xml::NodeKind::kElement, tag);
}

Status MctDatabase::AddNodeColor(NodeId node, ColorId color, NodeId parent,
                                 NodeId before) {
  if (color >= trees_.size()) {
    return Status::InvalidArgument("unregistered color");
  }
  bool first_color = store_.Colors(node).empty();
  MCT_RETURN_IF_ERROR(trees_[color]->InsertChild(parent, node, before));
  store_.AddColor(node, color);
  if (store_.Kind(node) == xml::NodeKind::kElement) {
    ImageInsert(&tag_image_, TagKey(color, store_.Name(node)), node);
    if (write_through_) {
      // Accounting mirror; a discarded trial clone can leave stale entries
      // behind, so B+Tree maintenance tolerates conflicts.
      Status s = tag_index_->Insert(
          IndexKey::Make(color, store_.Name(node), 0, node), node);
      (void)s;
    }
  }
  if (first_color) {
    // The node enters the database: its content and attribute values
    // become index-visible.
    if (store_.HasContent(node)) {
      ImageInsert(&content_image_,
                  ValueKey(store_.Name(node), HashValue(store_.Content(node))),
                  node);
      if (write_through_) {
        Status s = content_index_->Insert(
            IndexKey::Make(store_.Name(node), HashValue(store_.Content(node)),
                           0, node),
            node);
        (void)s;
      }
    }
    for (const NodeAttr& a : store_.Attrs(node)) {
      ImageInsert(&attr_image_, ValueKey(a.name, HashValue(a.value)), node);
      if (write_through_) {
        Status s = attr_index_->Insert(
            IndexKey::Make(a.name, HashValue(a.value), 0, node), node);
        (void)s;
      }
    }
  }
  return Status::OK();
}

Status MctDatabase::RemoveNodeColor(NodeId node, ColorId color) {
  if (color >= trees_.size()) {
    return Status::InvalidArgument("unregistered color");
  }
  std::vector<NodeId> removed;
  MCT_RETURN_IF_ERROR(trees_[color]->DetachSubtree(node, &removed));
  for (NodeId n : removed) {
    store_.RemoveColor(n, color);
    if (store_.Kind(n) == xml::NodeKind::kElement) {
      ImageErase(&tag_image_, TagKey(color, store_.Name(n)), n);
      if (write_through_) {
        Status s =
            tag_index_->Delete(IndexKey::Make(color, store_.Name(n), 0, n), n);
        (void)s;
      }
    }
    if (store_.Colors(n).empty()) {
      // Last color gone: the node leaves the database entirely.
      if (store_.HasContent(n)) {
        ImageErase(&content_image_,
                   ValueKey(store_.Name(n), HashValue(store_.Content(n))), n);
        if (write_through_) {
          Status s = content_index_->Delete(
              IndexKey::Make(store_.Name(n), HashValue(store_.Content(n)), 0,
                             n),
              n);
          (void)s;  // absent for non-element content carriers
        }
      }
      for (const NodeAttr& a : store_.Attrs(n)) {
        ImageErase(&attr_image_, ValueKey(a.name, HashValue(a.value)), n);
        if (write_through_) {
          Status s = attr_index_->Delete(
              IndexKey::Make(a.name, HashValue(a.value), 0, n), n);
          (void)s;
        }
      }
      store_.MarkDead(n);
    }
  }
  return Status::OK();
}

Status MctDatabase::SetContent(NodeId node, std::string_view text) {
  bool indexed = Indexed(node);
  if (indexed && store_.HasContent(node)) {
    ImageErase(&content_image_,
               ValueKey(store_.Name(node), HashValue(store_.Content(node))),
               node);
    if (write_through_) {
      Status s = content_index_->Delete(
          IndexKey::Make(store_.Name(node), HashValue(store_.Content(node)), 0,
                         node),
          node);
      (void)s;
    }
  }
  MCT_RETURN_IF_ERROR(store_.SetContent(node, text));
  if (indexed) {
    ImageInsert(&content_image_, ValueKey(store_.Name(node), HashValue(text)),
                node);
    if (write_through_) {
      Status s = content_index_->Insert(
          IndexKey::Make(store_.Name(node), HashValue(text), 0, node), node);
      (void)s;
    }
  }
  return Status::OK();
}

Status MctDatabase::SetAttr(NodeId node, std::string_view name,
                            std::string_view value) {
  bool indexed = Indexed(node);
  const std::string* old = store_.FindAttr(node, name);
  NameId name_id = store_.mutable_names()->Intern(name);
  if (indexed && old != nullptr) {
    ImageErase(&attr_image_, ValueKey(name_id, HashValue(*old)), node);
    if (write_through_) {
      Status s = attr_index_->Delete(
          IndexKey::Make(name_id, HashValue(*old), 0, node), node);
      (void)s;
    }
  }
  MCT_RETURN_IF_ERROR(store_.SetAttr(node, name, value));
  if (indexed) {
    ImageInsert(&attr_image_, ValueKey(name_id, HashValue(value)), node);
    if (write_through_) {
      Status s = attr_index_->Insert(
          IndexKey::Make(name_id, HashValue(value), 0, node), node);
      (void)s;
    }
  }
  return Status::OK();
}

std::optional<NodeId> MctDatabase::Parent(NodeId node, ColorId color) const {
  // Color compatibility (Section 3.2): accessor on a node lacking the color
  // returns the empty sequence.
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) {
    return std::nullopt;
  }
  NodeId p = trees_[color]->Parent(node);
  if (p == kInvalidNodeId) return std::nullopt;
  return p;
}

std::vector<NodeId> MctDatabase::Children(NodeId node, ColorId color) const {
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) return {};
  return trees_[color]->Children(node);
}

std::optional<std::string> MctDatabase::StringValue(NodeId node,
                                                    ColorId color) const {
  if (color >= trees_.size() || !store_.Colors(node).Has(color)) {
    return std::nullopt;
  }
  std::string out;
  for (NodeId n : trees_[color]->PreOrder(node)) {
    if (store_.HasContent(n)) out += store_.Content(n);
  }
  return out;
}

std::optional<double> MctDatabase::TypedValue(NodeId node,
                                              ColorId color) const {
  auto sv = StringValue(node, color);
  if (!sv.has_value()) return std::nullopt;
  return ParseDouble(*sv);
}

std::vector<NodeId> MctDatabase::TagScan(ColorId color, std::string_view tag) {
  std::vector<NodeId> out;
  NameId tag_id = store_.names().Lookup(tag);
  if (tag_id == kInvalidNameId || color >= trees_.size()) return out;
  const std::vector<NodeId>* list =
      ImageFind(*tag_image_, TagKey(color, tag_id));
  if (list == nullptr) return out;
  out = *list;
  // Posting order is by node id (stable under relabeling); re-establish the
  // local document order the structural operators need. Keys are extracted
  // once before sorting (Start() is a chunk probe).
  ColoredTree* t = trees_[color].get();
  t->EnsureLabels();
  std::vector<std::pair<uint64_t, NodeId>> keyed;
  keyed.reserve(out.size());
  for (NodeId n : out) keyed.emplace_back(t->Start(n), n);
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 0; i < keyed.size(); ++i) out[i] = keyed[i].second;
  return out;
}

std::vector<NodeId> MctDatabase::ContentLookup(std::string_view tag,
                                               std::string_view value) const {
  std::vector<NodeId> out;
  NameId tag_id = store_.names().Lookup(tag);
  if (tag_id == kInvalidNameId) return out;
  const std::vector<NodeId>* list =
      ImageFind(*content_image_, ValueKey(tag_id, HashValue(value)));
  if (list == nullptr) return out;
  for (NodeId n : *list) {
    if (store_.Content(n) == value) out.push_back(n);  // hash verify
  }
  return out;
}

std::vector<NodeId> MctDatabase::AttrLookup(std::string_view name,
                                            std::string_view value) const {
  std::vector<NodeId> out;
  NameId name_id = store_.names().Lookup(name);
  if (name_id == kInvalidNameId) return out;
  const std::vector<NodeId>* list =
      ImageFind(*attr_image_, ValueKey(name_id, HashValue(value)));
  if (list == nullptr) return out;
  for (NodeId n : *list) {
    const std::string* v = store_.FindAttr(n, name);
    if (v != nullptr && *v == value) out.push_back(n);
  }
  return out;
}

size_t MctDatabase::TagCount(ColorId color, std::string_view tag) const {
  NameId tag_id = store_.names().Lookup(tag);
  if (tag_id == kInvalidNameId || color >= trees_.size()) return 0;
  const std::vector<NodeId>* list =
      ImageFind(*tag_image_, TagKey(color, tag_id));
  return list == nullptr ? 0 : list->size();
}

DatabaseStats MctDatabase::Stats() const {
  DatabaseStats s;
  s.num_elements = store_.num_elements();
  s.num_attrs = store_.num_attrs();
  s.num_content_nodes = store_.num_content_nodes();
  s.data_bytes = store_.FileBytes();
  for (const auto& t : trees_) {
    s.num_struct_nodes += t->size();
    s.data_bytes += t->FileBytes();
  }
  s.index_bytes = tag_index_->SizeBytes() + content_index_->SizeBytes() +
                  attr_index_->SizeBytes();
  return s;
}

size_t MctDatabase::ResidentChunks() const {
  size_t n = store_.ResidentChunks();
  for (const auto& t : trees_) n += t->ResidentChunks();
  return n;
}

}  // namespace mct
