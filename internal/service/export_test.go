package service

// MaxUploadBytes is maxUploadBytes, for the upload-limit test.
const MaxUploadBytes = maxUploadBytes
