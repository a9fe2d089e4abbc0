#include "peace/persist/records.hpp"

namespace peace::persist {

Bytes GroupIssueRecord::to_bytes() const { return encode(*this); }
GroupIssueRecord GroupIssueRecord::from_bytes(BytesView data) {
  return decode<GroupIssueRecord>(data);
}

Bytes MasterRotatedRecord::to_bytes() const { return encode(*this); }
MasterRotatedRecord MasterRotatedRecord::from_bytes(BytesView data) {
  return decode<MasterRotatedRecord>(data);
}

Bytes RevocationRecord::to_bytes() const { return encode(*this); }
RevocationRecord RevocationRecord::from_bytes(BytesView data) {
  return decode<RevocationRecord>(data);
}

Bytes RouterProvisionedRecord::to_bytes() const { return encode(*this); }
RouterProvisionedRecord RouterProvisionedRecord::from_bytes(BytesView data) {
  return decode<RouterProvisionedRecord>(data);
}

Bytes EnrolledRecord::to_bytes() const { return encode(*this); }
EnrolledRecord EnrolledRecord::from_bytes(BytesView data) {
  return decode<EnrolledRecord>(data);
}

Bytes ReceiptArchivedRecord::to_bytes() const { return encode(*this); }
ReceiptArchivedRecord ReceiptArchivedRecord::from_bytes(BytesView data) {
  return decode<ReceiptArchivedRecord>(data);
}

}  // namespace peace::persist
